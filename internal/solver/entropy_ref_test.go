package solver

import (
	"math"

	"repro/internal/linalg"
)

// This file keeps the forward–backward solver as it stood before the
// fused residual/gradient pass and klProx's certified one-step exit,
// verbatim apart from the names, as the oracle both changes are held to:
// EntropyRegularized and klProx must return the same bits, iteration
// counts and Converged flags as entropyRegularizedRef and klProxRef.

// entropyRegularizedRef is EntropyRegularized in its three-pass form:
// MulVec, Sub and MulVecT for the gradient, then a prox sweep, then a
// separate sweep for the stopping rule against a copy of the previous
// iterate.
func entropyRegularizedRef(ws *Workspace, a LinOp, b linalg.Vector, prior linalg.Vector, tau float64, x0 linalg.Vector, maxIter int, tol float64) (linalg.Vector, FISTAResult) {
	if ws == nil {
		ws = new(Workspace)
	}
	n := a.Cols()
	if len(prior) != n {
		panic("solver: EntropyRegularized prior length mismatch")
	}
	var x linalg.Vector
	if x0 != nil {
		x = x0.Clone()
	} else {
		x = prior.Clone()
	}
	x.ClampNonNegative()
	l := 2 * ws.OperatorNormSq(a)
	if l <= 0 {
		l = 1
	}
	step := 1 / l
	eta := step * tau // prox weight on the KL term

	r := buf(&ws.r, a.Rows())
	g := buf(&ws.g, n)
	xPrev := buf(&ws.xPrev, n)
	res := FISTAResult{}
	for iter := 0; iter < maxIter; iter++ {
		copy(xPrev, x)
		// Forward step on the quadratic part.
		a.MulVec(r, x)
		linalg.Sub(r, r, b)
		a.MulVecT(g, r)
		for i := range x {
			z := x[i] - 2*step*g[i]
			if prior[i] <= 0 {
				x[i] = 0
				continue
			}
			x[i] = klProxRef(z, prior[i], eta)
		}
		var diff, norm float64
		for i := range x {
			d := x[i] - xPrev[i]
			diff += d * d
			norm += x[i] * x[i]
		}
		res.Iterations = iter + 1
		if diff <= tol*tol*(norm+1e-30) {
			res.Converged = true
			break
		}
		if math.IsNaN(diff) {
			break // a NaN iterate never recovers; stop instead of burning the budget
		}
	}
	return x, res
}

// klProxRef is klProx without its certified one-step exit: the
// safeguarded Newton loop alone. It solves the scalar proximal problem
//
//	argmin_{u>0}  (u−z)²/2 + eta·(u·log(u/p) − u + p)
//
// whose optimality condition is u + eta·log(u/p) = z. The left side is
// strictly increasing in u, so safeguarded Newton from a positive start
// converges quadratically.
func klProxRef(z, p, eta float64) float64 {
	if eta <= 0 {
		if z < 0 {
			return 0
		}
		return z
	}
	// Bracket: g(u) = u + eta·log(u/p) − z is -Inf at 0+, +Inf at +Inf.
	lo, hi := 0.0, math.Max(z, p)+eta+1
	u := z
	if z <= 0 {
		// For z <= 0 the optimality condition u = p·exp((z−u)/eta)
		// bounds the solution by ub = p·exp(z/eta), and g(ub) = ub > 0,
		// so [0, ub] brackets the root tightly. When ub underflows the
		// solution is zero at double precision — the common case for
		// the many near-zero demands of a heavy-tailed matrix, whose
		// gradient step drives z far below zero. Starting inside the
		// tight bracket (rather than at 1e-300, where g' = 1 + eta/u
		// explodes and every Newton step stalls into bisection over
		// [0, p]) keeps the per-coordinate cost at a few iterations;
		// without it, large backbones spend their entire entropy solve
		// bisecting dead coordinates.
		ub := p * math.Exp(z/eta)
		if ub < 1e-300 {
			return 0
		}
		if ub < hi {
			hi = ub
		}
		// First Newton step from ub in closed form: ub − ub/(1+eta/ub).
		u = ub * (eta / (ub + eta))
		if u <= 0 {
			u = ub / 2
		}
	}
	for iter := 0; iter < 60; iter++ {
		g := u + eta*math.Log(u/p) - z
		if math.Abs(g) <= 1e-12*(1+math.Abs(z)) {
			return u
		}
		if g > 0 {
			hi = u
		} else {
			lo = u
		}
		dg := 1 + eta/u
		next := u - g/dg
		if next <= lo || next >= hi || math.IsNaN(next) {
			next = (lo + hi) / 2 // bisection safeguard
			if next <= 0 {
				next = hi / 2
			}
		}
		if next <= 0 {
			next = u / 2
		}
		u = next
	}
	return u
}
