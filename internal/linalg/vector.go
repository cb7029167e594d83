// Package linalg provides the dense linear-algebra kernels used by the
// traffic-matrix estimation library: vectors, row-major matrices,
// Householder QR, Cholesky factorization and the associated solvers.
// These are the primitives behind every estimator of the paper's §4 —
// the gravity products of eq. (5), the regularized least-squares systems
// of eqs. (6)–(7) and the moment systems of Vardi's method (§4.2.2) all
// reduce to the dense operations defined here.
//
// The package is deliberately small and allocation-conscious: every routine
// that can write into a caller-supplied destination does so, and the hot
// kernels (Dot, Axpy, MulVec) are written as straight loops that the Go
// compiler vectorizes well.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector backed by a []float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Grow returns *p resized to n and stores it back in *p. It reuses the
// backing array when its capacity allows, keeping the old values there,
// and otherwise allocates a zeroed one. It is the scratch-buffer
// primitive of the solver, estimator and engine workspaces.
func Grow[S ~[]float64](p *S, n int) S {
	if cap(*p) >= n {
		*p = (*p)[:n]
	} else {
		*p = make(S, n)
	}
	return *p
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Dot returns the inner product of u and v. It panics if the lengths differ.
func Dot(u, v Vector) float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(u), len(v)))
	}
	var s float64
	for i, x := range u {
		s += x * v[i]
	}
	return s
}

// Axpy computes y += a*x in place. It panics if the lengths differ.
func Axpy(a float64, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Scale multiplies every element of v by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Sub computes dst = u - v and returns dst. dst may alias u or v.
func Sub(dst, u, v Vector) Vector {
	checkLen3(dst, u, v)
	for i := range dst {
		dst[i] = u[i] - v[i]
	}
	return dst
}

func checkLen3(a, b, c Vector) {
	if len(a) != len(b) || len(b) != len(c) {
		panic(fmt.Sprintf("linalg: length mismatch %d/%d/%d", len(a), len(b), len(c)))
	}
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// large entries by scaling.
func (v Vector) Norm2() float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// DiffNorm2 returns ‖a − b‖₂ without materializing the difference vector,
// using the same overflow-guarded scaling as Norm2 — so it is bit-for-bit
// the value of Sub(NewVector(len(a)), a, b).Norm2(), minus the allocation.
// It is the convergence-check kernel of every iterative solver in this
// repository. It panics if the lengths differ.
func DiffNorm2(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: DiffNorm2 length mismatch %d vs %d", len(a), len(b)))
	}
	var scale, ssq float64 = 0, 1
	for i, x := range a {
		x -= b[i]
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// RelL1 returns the relative L1 distance ‖a − b‖₁ / ‖b‖₁, or 0 when b
// has no mass — the scale-free "how much did this move" metric shared
// by the scenario lab's error scoring and the streaming engine's window
// drift signal. It panics if the lengths differ.
func RelL1(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: RelL1 length mismatch %d vs %d", len(a), len(b)))
	}
	var num, den float64
	for i := range a {
		num += math.Abs(a[i] - b[i])
		den += math.Abs(b[i])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum element of v and its index, or (-Inf, -1) for an
// empty vector.
func (v Vector) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// ClampNonNegative sets every negative element of v to zero.
func (v Vector) ClampNonNegative() {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// AllFinite reports whether every element of v is finite (no NaN or Inf).
func (v Vector) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
