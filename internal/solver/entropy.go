package solver

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// EntropyRegularized solves the entropy-penalized tomography problem of
// Zhang et al. (eq. 6 in the paper):
//
//	minimize ‖A·x − b‖₂² + tau·D(x‖prior)   subject to x >= 0
//
// where D(x‖p) = Σ x_i·log(x_i/p_i) − x_i + p_i is the generalized
// Kullback–Leibler divergence. It uses forward–backward splitting: a
// gradient step on the quadratic term followed by the exact proximal
// operator of the KL term, which is separable and solved per coordinate by
// safeguarded Newton (klProx, which returns a Newton step it can prove the
// next pass would accept without evaluating that pass). Coordinates whose
// prior is zero are pinned to zero (the KL term is +Inf off the prior's
// support).
//
// Each iteration makes two passes over the data: one fused sweep of the
// matrix for the residual and gradient (sparse.Matrix.ResidualGrad), and
// one over the coordinates that applies the prox and accumulates the
// stopping rule's step and iterate norms as it goes. Both keep the
// summation order of the textbook form (MulVec, Sub, MulVecT, then a
// separate norm sweep), so the iterates are bit-identical to it.
//
// x0 is the starting point (nil starts from the prior); warm starting pays
// off when a sequence of closely related problems is solved, e.g. the
// streaming re-solves of internal/stream. The residual and gradient
// buffers come from ws, and the operator norm from ws's cache; a nil ws
// uses a fresh one. The returned iterate is always freshly allocated (it
// is the published estimate), never a workspace buffer.
func EntropyRegularized(ws *Workspace, a *sparse.Matrix, b linalg.Vector, prior linalg.Vector, tau float64, x0 linalg.Vector, maxIter int, tol float64) (linalg.Vector, FISTAResult) {
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

	r := linalg.Grow(&ws.r, a.Rows())
	g := linalg.Grow(&ws.g, n)
	res := FISTAResult{}
	for iter := 0; iter < maxIter; iter++ {
		// Forward step on the quadratic part.
		a.ResidualGrad(r, g, x, b)
		var diff, norm float64
		for i, xi := range x {
			z := xi - 2*step*g[i]
			next := 0.0
			if !(prior[i] <= 0) { // a NaN prior reaches klProx, and yields NaN
				next = klProx(z, prior[i], eta)
			}
			d := next - xi
			diff += d * d
			norm += next * next
			x[i] = next
		}
		res.Iterations = iter + 1
		if stop, converged := stepStop(diff, norm, tol); stop {
			res.Converged = converged
			break
		}
	}
	return x, res
}

// klProx solves the scalar proximal problem
//
//	argmin_{u>0}  (u−z)²/2 + eta·(u·log(u/p) − u + p)
//
// whose optimality condition is u + eta·log(u/p) = z. The left side is
// strictly increasing in u, so safeguarded Newton from a positive start
// converges quadratically.
//
// Most calls of a warm re-solve start next to the root, and the first
// Newton step from u = z lands on it: the second pass would spend its
// math.Log only to confirm that step. For z >= eta the first pass
// therefore asks newtonCertified whether the second pass's acceptance
// test is provably met, and if so returns the Newton point one pass
// early. The returned value is the loop's own second iterate, so the
// result is bit-identical to running the loop; a step the bound cannot
// certify simply continues the unchanged loop.
func klProx(z, p, eta float64) float64 {
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
	tol := 1e-12 * (1 + math.Abs(z))
	for iter := 0; iter < 60; iter++ {
		q := u / p
		g := u + eta*math.Log(q) - z
		if math.Abs(g) <= tol {
			return u
		}
		if g > 0 {
			hi = u
		} else {
			lo = u
		}
		dg := 1 + eta/u
		next := u - g/dg
		// With z >= eta > 0 the first pass starts at u = z, and a Newton
		// point inside the bracket is what the second pass evaluates:
		// return it now if that pass provably accepts it.
		if iter == 0 && z >= eta && lo < next && next < hi && newtonCertified(z, q, eta, g, next, tol) {
			return next
		}
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

// newtonCertified reports whether klProx's second pass, evaluated at the
// first pass's Newton point u1 = fl(z − g1/fl(1 + eta/z)), would return
// it: whether the computed g2 = fl(u1 + eta·Log(fl(u1/p)) − z) satisfies
// |g2| <= tol = fl(1e-12·fl(1+z)). g1 and q = fl(z/p) are the first
// pass's computed residual and quotient at u = z. It requires
// z >= eta > 0 and u1 strictly inside the first pass's bracket, and it
// evaluates no logarithm.
//
// The bound. Let ε = 2⁻⁵³ and suppose Log is within 2 ulp (math.Log
// documents 1), so a computed log L carries absolute error at most
// ε + 4ε·|L| after the quotient's own rounding. Two guards hold the
// rest of the argument in a small range:
//   - |g1| <= z/4, with dg >= 1, puts u1 in [0.74z, 1.26z]. Both "− z"
//     subtractions then see operands within a factor 2 of z and are exact
//     (Sterbenz) once the residuals are small, and eta·|L0|, eta·|L1| stay
//     under 0.26z + |g|.
//   - 2⁻¹⁰²¹ <= q <= 2¹⁰²² keeps both quotients z/p and u1/p normal, so
//     each carries relative error at most ε.
//
// In exact arithmetic on the floats, with d = u1 − z,
//
//	u1 + eta·ln(u1/p) − z = N − T,   N = d·(1+eta/z) + eta·ln(z/p),
//	0 <= T = ½·eta·d²/ξ² <= ½·eta·d²/min(z,u1)²   (ξ between z and u1),
//
// the Taylor expansion of ln around z with Lagrange remainder T. N would
// be 0 for an exact Newton step; here it is rounding only, each term
// bounded using eta <= z, |g1| <= z/4 and u1 <= 1.26z:
//   - the quotients g1/dg and eta/z and the sum 1 + eta/z: 0.64ε·z;
//   - rounding u1 itself, times the slope 1 + eta/z <= 2: 2.52ε·z;
//   - g1's product, sum and (exact) difference: 1.77ε·z;
//   - the error of L0 = Log(fl(z/p)), times eta: 2.04ε·z.
//
// Evaluating g2 adds the error of L1, times eta (2.04ε·z), and the
// rounding of its product and sum (1.26ε·z), plus relative terms of at
// most 8ε on |g2| itself (the final subtraction is exact by Sterbenz once
// z ≫ tol, and rounds by at most ε·|g2| otherwise). All of it holds with
// or without fused multiply-add: a fused eta·L + u only removes the
// product's rounding. Altogether
//
//	|g2| <= (1+8ε)·T + 11ε·z.
//
// The test below compares the computed remainder (relative error under 5ε)
// plus a slack of 2⁻⁴⁸·(1+z) = 32ε·(1+z) against tol. The slack covers the
// 11ε·z of rounding with 21ε·(1+z) to spare, which exceeds the relative
// terms' 14ε·tol because tol = 1e-12·(1+z). The slack sits 280x under
// tol, and the rounding terms it covers 800x under, so the exit is taken
// whenever the remainder is below about 0.996·tol.
func newtonCertified(z, q, eta, g1, u1, tol float64) bool {
	if 4*math.Abs(g1) > z || !(q >= 0x1p-1021 && q <= 0x1p1022) {
		return false
	}
	d := u1 - z
	m := min(z, u1)
	return 0.5*eta*(d/m)*(d/m)+0x1p-48*(1+z) <= tol
}
