package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/topology"
)

// Bayesian computes the MAP estimate of eq. (7):
//
//	minimize ‖R·s − t‖² + σ⁻²·‖s − prior‖²   subject to s >= 0,
//
// where reg = σ² is the regularization parameter swept in Fig. 13: small
// values trust the prior, large values trust the link measurements. Solved
// with accelerated projected gradient (FISTA); opt.X0 nil starts from the
// prior. The MAP objective is strongly convex, so the solution is
// independent of the start; note that FISTA's momentum makes a warm start
// shorten the *distance* to the fixed point without reliably shortening
// the iteration count — streaming re-solves (internal/stream) get their
// warm-start iteration savings from the entropy and fanout solvers.
func Bayesian(in *Instance, prior linalg.Vector, reg float64, opt SolveOptions) (linalg.Vector, int, error) {
	ws, maxIter, tol := opt.budget(defaultMaxIter)
	if err := checkRegularized("Bayesian", in, prior, reg, opt.X0); err != nil {
		return nil, 0, err
	}
	x, res := solver.LeastSquaresNonneg(&ws.sw, in.Rt.R, in.Loads, prior, 1/reg, opt.X0, maxIter, tol)
	if !x.AllFinite() {
		return nil, 0, fmt.Errorf("core: Bayesian produced non-finite estimate (%d iters)", res.Iterations)
	}
	return x, res.Iterations, nil
}

// checkRegularized validates the inputs of the regularized estimators:
// positive (not NaN) regularization, finite loads (a NaN or ±Inf
// measurement can only produce a non-finite estimate, so it is refused
// before any solver budget is spent on it), and a prior and warm start
// with one entry per demand.
func checkRegularized(method string, in *Instance, prior linalg.Vector, reg float64, x0 linalg.Vector) error {
	if !(reg > 0) { // also refuses NaN
		return fmt.Errorf("core: %s needs positive regularization, got %v", method, reg)
	}
	if l := in.Rt.R.Rows(); len(in.Loads) != l {
		return fmt.Errorf("core: %s has %d loads for %d links", method, len(in.Loads), l)
	}
	if j := nonFinite(in.Loads); j >= 0 {
		return fmt.Errorf("core: %s load %d is %v", method, j, in.Loads[j])
	}
	p := in.Rt.R.Cols()
	if len(prior) != p {
		return fmt.Errorf("core: %s prior has %d demands, want %d", method, len(prior), p)
	}
	if x0 != nil && len(x0) != p {
		return fmt.Errorf("core: %s warm start has %d demands, want %d", method, len(x0), p)
	}
	return nil
}

// Entropy computes the entropy-penalized estimate of eq. (6) (Zhang et
// al.'s tomogravity criterion):
//
//	minimize ‖R·s − t‖² + σ⁻²·D(s‖prior)   subject to s >= 0,
//
// with reg = σ² the regularization parameter. Solved by forward–backward
// splitting with an exact per-coordinate KL proximal step; opt.X0 nil
// starts from the prior. The objective is strictly convex on the prior's
// support, so the fixed point does not depend on the start — only the
// iteration count does: streaming re-solves over a slowly drifting window
// (internal/stream) warm-start each solve from the previous published
// estimate and converge in a fraction of the cold-start iterations.
func Entropy(in *Instance, prior linalg.Vector, reg float64, opt SolveOptions) (linalg.Vector, int, error) {
	ws, maxIter, tol := opt.budget(defaultMaxIter)
	if err := checkRegularized("Entropy", in, prior, reg, opt.X0); err != nil {
		return nil, 0, err
	}
	x, res := solver.EntropyRegularized(&ws.sw, in.Rt.R, in.Loads, prior, 1/reg, opt.X0, maxIter, tol)
	if !x.AllFinite() {
		return nil, 0, fmt.Errorf("core: Entropy produced non-finite estimate (%d iters)", res.Iterations)
	}
	return x, res.Iterations, nil
}

// Kruithof adjusts a prior traffic matrix to be consistent with the
// measured ingress and egress totals by classical iterative proportional
// fitting — the 1937 method, which uses only the marginals, not the
// interior links.
func Kruithof(in *Instance, prior linalg.Vector) (linalg.Vector, error) {
	te := in.IngressTotals()
	tx := in.EgressTotals()
	// Balance the marginal totals (they can disagree slightly when loads
	// come from noisy collection).
	if s := tx.Sum(); s > 0 {
		tx.Scale(te.Sum() / s)
	}
	s, err := KruithofPairs(in.Rt.Net, prior, te, tx, 2000, 1e-10)
	if err != nil {
		return nil, fmt.Errorf("core: Kruithof: %w", err)
	}
	return s, nil
}

// KruithofPairs scales the demand vector x (indexed like net's pairs) to
// the per-PoP ingress totals te and egress totals tx by iterative
// proportional fitting (solver.KruithofBalance on the PoP×PoP matrix),
// within maxIter sweeps and tolerance tol. x is not mutated.
func KruithofPairs(net *topology.Network, x, te, tx linalg.Vector, maxIter int, tol float64) (linalg.Vector, error) {
	n := net.NumPoPs()
	pm := linalg.NewMatrix(n, n)
	for p := 0; p < net.NumPairs(); p++ {
		src, dst := net.PairFromIndex(p)
		pm.Set(src, dst, x[p])
	}
	bal, _, err := solver.KruithofBalance(pm, te, tx, maxIter, tol)
	if err != nil {
		return nil, err
	}
	out := linalg.NewVector(net.NumPairs())
	for p := range out {
		out[p] = bal.At(net.PairFromIndex(p))
	}
	return out, nil
}
