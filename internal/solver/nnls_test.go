package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// NNLS solves the non-negative least-squares problem
//
//	minimize ‖A·x − b‖₂²  subject to  x >= 0
//
// with the active-set algorithm of Lawson & Hanson (1974). The returned
// solution satisfies the KKT conditions to within tol: x >= 0, the gradient
// w = Aᵀ(b − A·x) has w_j <= tol on the zero set and |w_j| <= tol on the
// positive set.
func NNLS(a *linalg.Matrix, b linalg.Vector) linalg.Vector {
	n := a.Cols
	x := linalg.NewVector(n)
	passive := make([]bool, n) // true: in passive (positive) set
	w := linalg.NewVector(n)   // gradient Aᵀ(b − A·x)
	resid := b.Clone()         // b − A·x

	var bMax float64 // ‖b‖∞
	for _, v := range b {
		bMax = math.Max(bMax, math.Abs(v))
	}
	tol := 1e-10 * (1 + maxAbs(a)) * (1 + bMax)
	maxOuter := 3 * n
	for outer := 0; outer < maxOuter; outer++ {
		denseMulVecT(a, w, resid)
		// Most-violating zero-set coordinate.
		best, bestJ := tol, -1
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > best {
				best, bestJ = w[j], j
			}
		}
		if bestJ < 0 {
			break // KKT satisfied
		}
		passive[bestJ] = true

		// Inner loop: solve unconstrained LS on the passive set; walk back
		// if any passive coordinate would go negative.
		for {
			z, cols := lsOnPassive(a, b, passive)
			if len(cols) == 0 {
				break
			}
			minZ := math.Inf(1)
			for _, zi := range z {
				if zi < minZ {
					minZ = zi
				}
			}
			if minZ > 0 {
				x.Zero()
				for i, j := range cols {
					x[j] = z[i]
				}
				break
			}
			// Step toward z only as far as feasibility allows.
			alpha := math.Inf(1)
			for i, j := range cols {
				if z[i] <= 0 {
					if d := x[j] - z[i]; d > 0 {
						if r := x[j] / d; r < alpha {
							alpha = r
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for i, j := range cols {
				x[j] += alpha * (z[i] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
		}
		av := denseMulVec(a, nil, x)
		linalg.Sub(resid, b, av)
	}
	x.ClampNonNegative()
	return x
}

// lsOnPassive solves the least-squares problem restricted to the passive
// columns, returning the solution and the column indices it corresponds to.
func lsOnPassive(a *linalg.Matrix, b linalg.Vector, passive []bool) (linalg.Vector, []int) {
	var cols []int
	for j, p := range passive {
		if p {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return nil, nil
	}
	sub := linalg.NewMatrix(a.Rows, len(cols))
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		si := sub.Row(i)
		for k, j := range cols {
			si[k] = ri[j]
		}
	}
	return solveLeastSquares(sub, b), cols
}

// maxAbs returns the largest absolute entry of m (0 for an empty matrix).
func maxAbs(m *linalg.Matrix) float64 {
	var s float64
	for _, x := range m.Data {
		s = math.Max(s, math.Abs(x))
	}
	return s
}

// errSingular is returned when a QR solve meets a matrix that is rank
// deficient to working precision.
var errSingular = errors.New("matrix is singular to working precision")

// qrFactor holds a Householder QR factorization of an m×n matrix with
// m >= n.
type qrFactor struct {
	m, n int
	qr   *linalg.Matrix // packed: R in upper triangle, Householder vectors below
	tau  linalg.Vector
}

// newQR factors a (m×n, m >= n) via Householder reflections. a is not
// modified.
func newQR(a *linalg.Matrix) (*qrFactor, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("QR requires rows >= cols")
	}
	qr := a.Clone()
	tau := linalg.NewVector(n)
	for k := 0; k < n; k++ {
		// Householder vector for column k, rows k..m-1.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = norm
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &qrFactor{m: m, n: n, qr: qr, tau: tau}, nil
}

// solve returns the least-squares solution x of a·x ≈ b, i.e. the
// minimizer of ‖a·x − b‖₂. It returns errSingular if a is rank deficient.
func (f *qrFactor) solve(b linalg.Vector) (linalg.Vector, error) {
	if len(b) != f.m {
		return nil, errors.New("QR solve: bad length")
	}
	// Rank check: a diagonal of R that is tiny relative to the largest one
	// marks the matrix as numerically rank deficient.
	var maxTau float64
	for _, t := range f.tau {
		maxTau = math.Max(maxTau, math.Abs(t))
	}
	thresh := maxTau * float64(f.m) * 1e-14
	for k := 0; k < f.n; k++ {
		if math.Abs(f.tau[k]) <= thresh || f.qr.At(k, k) == 0 {
			return nil, errSingular
		}
	}
	y := b.Clone()
	// Apply Qᵀ to y.
	for k := 0; k < f.n; k++ {
		var s float64
		for i := k; i < f.m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[0:n]. Diagonal of R is -tau (sign folded in).
	x := linalg.NewVector(f.n)
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / -f.tau[i]
	}
	return x, nil
}

// solveLeastSquares returns the minimizer of ‖a·x − b‖₂ using QR when a
// has full column rank. Otherwise it returns the minimizer of the damped
// ‖a·x − b‖² + ε‖x‖², the least-squares problem of a stacked on √ε·I,
// which has full column rank; ε starts at 1e-10·(1 + max_j ‖a_j‖²) and
// grows tenfold until the factorization passes its rank check.
func solveLeastSquares(a *linalg.Matrix, b linalg.Vector) linalg.Vector {
	if a.Rows >= a.Cols {
		if f, err := newQR(a); err == nil {
			if x, err := f.solve(b); err == nil {
				return x
			}
		}
	}
	var colMax float64 // max_j ‖a_j‖², the largest entry of aᵀa
	for j := 0; j < a.Cols; j++ {
		var s float64
		for i := 0; i < a.Rows; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		colMax = math.Max(colMax, s)
	}
	eps := 1e-10 * (1 + colMax)
	aug := linalg.NewMatrix(a.Rows+a.Cols, a.Cols)
	copy(aug.Data, a.Data)
	bAug := linalg.NewVector(a.Rows + a.Cols)
	copy(bAug, b)
	for k := 0; k < 40; k++ {
		for j := 0; j < a.Cols; j++ {
			aug.Set(a.Rows+j, j, math.Sqrt(eps))
		}
		f, _ := newQR(aug)
		if x, err := f.solve(bAug); err == nil {
			return x
		}
		eps *= 10
	}
	return linalg.NewVector(a.Cols)
}

func randVec(rng *rand.Rand, n int) linalg.Vector {
	v := linalg.NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestQRSolveSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 5, 5)
	xTrue := randVec(rng, 5)
	b := denseMulVec(a, nil, xTrue)
	f, err := newQR(a)
	if err != nil {
		t.Fatalf("newQR: %v", err)
	}
	x, err := f.solve(b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7*(1+math.Abs(x[i])+math.Abs(xTrue[i])) {
			t.Fatalf("QR solve x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 10, 4)
	b := randVec(rng, 10)
	f, err := newQR(a)
	if err != nil {
		t.Fatalf("newQR: %v", err)
	}
	x, err := f.solve(b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	r := linalg.Sub(linalg.NewVector(10), denseMulVec(a, nil, x), b)
	for j, v := range denseMulVecT(a, nil, r) {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: (Aᵀr)[%d] = %v", j, v)
		}
	}
}

func TestQRRankDeficientReturnsError(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := newQR(a)
	if err != nil {
		t.Fatalf("newQR: %v", err)
	}
	if _, err := f.solve(linalg.Vector{1, 2, 3}); !errors.Is(err, errSingular) {
		t.Fatalf("solve of a rank-deficient system: err = %v, want errSingular", err)
	}
}

func TestSolveLeastSquaresFallback(t *testing.T) {
	// Rank-deficient: fallback must still return a finite minimizer.
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := linalg.Vector{2, 4, 6}
	x := solveLeastSquares(a, b)
	if !x.AllFinite() {
		t.Fatal("fallback produced non-finite solution")
	}
	r := linalg.Sub(linalg.NewVector(3), denseMulVec(a, nil, x), b)
	if r.Norm2() > 1e-4 {
		t.Fatalf("fallback residual too large: %v", r.Norm2())
	}
}
