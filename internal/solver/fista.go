package solver

import (
	"math"

	"repro/internal/linalg"
)

// LinOp is a linear operator with products against vectors;
// *sparse.Matrix satisfies it.
type LinOp interface {
	MulVec(dst, x linalg.Vector) linalg.Vector
	MulVecT(dst, x linalg.Vector) linalg.Vector
	Rows() int
	Cols() int
}

// operatorNormSq estimates ‖A‖₂² (the largest eigenvalue of AᵀA) by power
// iteration, within a few percent — sufficient for a safe gradient step.
// It writes into caller-supplied scratch (x: cols, y: rows, z: cols).
func operatorNormSq(a LinOp, x, y, z linalg.Vector) float64 {
	if a.Cols() == 0 || a.Rows() == 0 {
		return 0
	}
	for i := range x {
		x[i] = 1 + float64(i%7)*0.1 // deterministic, not axis-aligned
	}
	var lam float64
	for iter := 0; iter < 60; iter++ {
		a.MulVec(y, x)
		a.MulVecT(z, y)
		nz := z.Norm2()
		if nz == 0 {
			return 0
		}
		newLam := linalg.Dot(x, z) / linalg.Dot(x, x)
		copy(x, z)
		x.Scale(1 / nz)
		if iter > 4 && math.Abs(newLam-lam) <= 1e-6*newLam {
			return newLam * 1.02
		}
		lam = newLam
	}
	return lam * 1.05
}

// FISTAResult reports how an accelerated projected-gradient run ended.
type FISTAResult struct {
	Iterations int
	Converged  bool
}

// FISTA minimizes a smooth convex function with L-Lipschitz gradient over a
// convex set, using Beck & Teboulle's accelerated projected gradient with
// restart on non-monotonicity. grad must write ∇f(x) into dst; project must
// project its argument onto the feasible set in place. x is updated in
// place and also returned. The momentum, gradient and previous-iterate
// buffers come from ws; a nil ws uses a fresh one.
func FISTA(ws *Workspace, x linalg.Vector, grad func(dst, x linalg.Vector), l float64, project func(linalg.Vector), maxIter int, tol float64) (linalg.Vector, FISTAResult) {
	if ws == nil {
		ws = new(Workspace)
	}
	n := len(x)
	y := linalg.Grow(&ws.y, n)
	copy(y, x)
	xPrev := linalg.Grow(&ws.xPrev, n)
	copy(xPrev, x)
	g := linalg.Grow(&ws.g, n)
	if l <= 0 {
		l = 1
	}
	step := 1 / l
	t := 1.0
	for iter := 0; iter < maxIter; iter++ {
		grad(g, y)
		copy(xPrev, x)
		// x = project(y − step·g)
		for i := range x {
			x[i] = y[i] - step*g[i]
		}
		project(x)
		tNext := (1 + math.Sqrt(1+4*t*t)) / 2
		// Momentum with gradient-based restart: if the update reverses the
		// momentum direction, reset t (O'Donoghue & Candès).
		var dot float64
		for i := range x {
			dot += (y[i] - x[i]) * (x[i] - xPrev[i])
		}
		if dot > 0 {
			t, tNext = 1, 1
			copy(y, x)
		} else {
			beta := (t - 1) / tNext
			for i := range y {
				y[i] = x[i] + beta*(x[i]-xPrev[i])
			}
		}
		t = tNext
		// Relative-change stopping rule.
		var diff, norm float64
		for i := range x {
			d := x[i] - xPrev[i]
			diff += d * d
			norm += x[i] * x[i]
		}
		if stop, converged := stepStop(diff, norm, tol); stop {
			return x, FISTAResult{Iterations: iter + 1, Converged: converged}
		}
	}
	return x, FISTAResult{Iterations: maxIter, Converged: false}
}

// stepStop is the relative-change stopping rule the iterative solvers
// share: given diff = ‖x − xPrev‖² and norm = ‖x‖² after one iteration,
// it stops converged when the step is within tol of the iterate. A NaN
// or ±Inf step stops unconverged: such an iterate never recovers, and
// +Inf would otherwise pass the test against a +Inf norm.
func stepStop(diff, norm, tol float64) (stop, converged bool) {
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return true, false
	}
	converged = diff <= tol*tol*(norm+1e-30)
	return converged, converged
}

// LeastSquaresNonneg solves  min ‖A·x − b‖² + damp·‖x − prior‖²  s.t. x >= 0
// with FISTA. prior may be nil (treated as the origin) and damp may be 0.
// x0 may be nil (starts from prior, or zero). The residual and FISTA
// buffers come from ws, and the operator norm from ws's cache when the
// same operator is solved repeatedly; a nil ws uses a fresh one. The
// returned iterate is always freshly allocated, never a workspace buffer.
func LeastSquaresNonneg(ws *Workspace, a LinOp, b linalg.Vector, prior linalg.Vector, damp float64, x0 linalg.Vector, maxIter int, tol float64) (linalg.Vector, FISTAResult) {
	if ws == nil {
		ws = new(Workspace)
	}
	n := a.Cols()
	var x linalg.Vector
	switch {
	case x0 != nil:
		x = x0.Clone()
	case prior != nil:
		x = prior.Clone()
	default:
		x = linalg.NewVector(n)
	}
	x.ClampNonNegative()
	l := 2*ws.OperatorNormSq(a) + 2*damp
	r := linalg.Grow(&ws.r, a.Rows())
	grad := func(dst, xx linalg.Vector) {
		a.MulVec(r, xx)
		linalg.Sub(r, r, b)
		a.MulVecT(dst, r)
		dst.Scale(2)
		if damp > 0 {
			for i := range dst {
				p := 0.0
				if prior != nil {
					p = prior[i]
				}
				dst[i] += 2 * damp * (xx[i] - p)
			}
		}
	}
	return FISTA(ws, x, grad, l, func(v linalg.Vector) { v.ClampNonNegative() }, maxIter, tol)
}
