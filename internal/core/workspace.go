package core

import (
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// Workspace bundles the per-engine scratch state of the estimation
// methods: the solver-level buffers (gradients, residuals, momentum
// iterates) plus the method-level staging vectors (sample moments, moment
// right-hand sides, fanout scalings, simplex-projection scratch) and the
// routing-matrix-derived artifacts of the last solve: the solver
// workspace caches the operator norm per matrix pointer, and the
// workspace keeps Vardi's moment assembly for one (matrix pointer,
// weight) pair, rebuilding it when either changes.
//
// Like solver.Workspace, a core Workspace serves one solving goroutine at
// a time; the streaming engine owns one per engine and reuses it across
// its periodic re-solves, which is what makes the steady-state resolve
// loop allocation-free. A workspace only changes where scratch lives,
// never the arithmetic, so an estimate's bits are the same on a fresh
// workspace and on one reused across methods and topologies. The zero
// value is ready to use.
type Workspace struct {
	sw    solver.Workspace
	vardi *vardiAssembly // last Vardi moment assembly, see vardiFor

	te, tx linalg.Vector // marginal-total scratch
	prior  linalg.Vector // GravityWS output buffer
	share  []float64     // ShareThresholdWS sorting scratch

	// Vardi staging: sample moments and the stacked right-hand side.
	tHat    linalg.Vector
	cov     *linalg.Matrix
	covMean linalg.Vector
	covD    linalg.Vector
	rhs     linalg.Vector
	x0      linalg.Vector

	// Fanout staging.
	scales         []linalg.Vector
	groups         [][]int
	groupsFor      *topology.Network
	scaled         linalg.Vector
	resid          linalg.Vector
	back           linalg.Vector
	groupTmp       []float64
	simplexScratch []float64
}

// vardiFor returns Vardi's moment assembly for (m, w), rebuilding the
// cached one when the routing matrix pointer or the weight changed.
func (ws *Workspace) vardiFor(m *sparse.Matrix, w float64) *vardiAssembly {
	if a := ws.vardi; a == nil || a.r != m || a.w != w {
		ws.vardi = buildVardiAssembly(m, w)
	}
	return ws.vardi
}

// Default solve budgets: the objectives are strongly smooth and the
// problems small (≤ 600 variables on the paper's networks), so these are
// generous. Vardi's stacked moment system gets a larger budget, adequate
// for the American network.
const (
	defaultMaxIter = 20000
	vardiMaxIter   = 30000
	defaultTol     = 1e-9
)

// SolveOptions carries the per-call settings every estimator entry point
// (Entropy, Bayesian, Vardi, EstimateFanouts) shares. The zero value is a
// cold solve on a fresh workspace under the method's default budget.
type SolveOptions struct {
	// WS supplies reusable scratch and cached matrix artifacts; nil
	// means a fresh Workspace. The estimate's bits do not depend on it.
	WS *Workspace
	// X0 is the warm start: the starting demand estimate, or for
	// EstimateFanouts the starting fanouts α. Nil means a cold start. It
	// is only read, never modified.
	X0 linalg.Vector
	// MaxIter bounds the solver iterations; 0 means 20000 (30000 for
	// Vardi).
	MaxIter int
	// Tol is the relative-change stopping tolerance; 0 means 1e-9.
	Tol float64
}

// budget resolves the options' defaults: the workspace to solve out of and
// the iteration budget and tolerance, given the method's default budget.
func (o SolveOptions) budget(defIter int) (ws *Workspace, maxIter int, tol float64) {
	ws, maxIter, tol = o.WS, o.MaxIter, o.Tol
	if ws == nil {
		ws = new(Workspace)
	}
	if maxIter <= 0 {
		maxIter = defIter
	}
	if tol <= 0 {
		tol = defaultTol
	}
	return ws, maxIter, tol
}

// nonFinite returns the index of v's first NaN or ±Inf entry, or -1.
func nonFinite(v linalg.Vector) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// vbuf returns *p resized to n, reusing its backing array when possible.
func vbuf(p *linalg.Vector, n int) linalg.Vector {
	if cap(*p) >= n {
		*p = (*p)[:n]
	} else {
		*p = linalg.NewVector(n)
	}
	return *p
}

// fbuf is vbuf for plain float slices.
func fbuf(p *[]float64, n int) []float64 {
	if cap(*p) >= n {
		*p = (*p)[:n]
	} else {
		*p = make([]float64, n)
	}
	return *p
}

// IngressTotals is Instance.IngressTotals writing into the workspace's
// scratch vector (overwritten by the next call). Nil ws allocates.
func (ws *Workspace) IngressTotals(in *Instance) linalg.Vector {
	if ws == nil {
		return in.IngressTotals()
	}
	n := in.Rt.Net.NumPoPs()
	te := vbuf(&ws.te, n)
	for pop := 0; pop < n; pop++ {
		te[pop] = in.Loads[in.Rt.IngressRow(pop)]
	}
	return te
}

// EgressTotals is Instance.EgressTotals into workspace scratch.
func (ws *Workspace) EgressTotals(in *Instance) linalg.Vector {
	if ws == nil {
		return in.EgressTotals()
	}
	n := in.Rt.Net.NumPoPs()
	tx := vbuf(&ws.tx, n)
	for pop := 0; pop < n; pop++ {
		tx[pop] = in.Loads[in.Rt.EgressRow(pop)]
	}
	return tx
}

// GravityWS computes the gravity prior like Gravity, drawing the marginal
// totals AND the returned vector from workspace scratch: the result is
// overwritten by the next GravityWS call on the same workspace, so a
// caller that publishes or otherwise retains the prior beyond one solve
// must Clone it (the regularized solvers only read the prior during the
// solve, which is the intended use). Nil ws allocates everything fresh.
func GravityWS(ws *Workspace, in *Instance) linalg.Vector {
	te := ws.IngressTotals(in)
	tx := ws.EgressTotals(in)
	if ws == nil {
		return GravityFromTotals(in.Rt.Net, te, tx, nil)
	}
	return GravityFromTotalsInto(vbuf(&ws.prior, in.Rt.Net.NumPairs()), in.Rt.Net, te, tx, nil)
}

// ShareThresholdWS is ShareThreshold sorting into workspace scratch. The
// copy is sorted ascending and both passes (the total and the running
// prefix) walk it backwards, visiting values in exactly the descending
// order ShareThreshold sums in, so the returned threshold is
// bit-identical. Nil ws is exactly ShareThreshold.
func ShareThresholdWS(ws *Workspace, truth linalg.Vector, share float64) float64 {
	if ws == nil {
		return ShareThreshold(truth, share)
	}
	s := fbuf(&ws.share, len(truth))
	copy(s, truth)
	sort.Float64s(s)
	var total float64
	for i := len(s) - 1; i >= 0; i-- {
		total += s[i]
	}
	if total <= 0 {
		return 0
	}
	var run float64
	for i := len(s) - 1; i >= 0; i-- {
		v := s[i]
		run += v
		if run >= share*total {
			// Everything >= v is in; a threshold a hair below v keeps v.
			return v * (1 - 1e-12)
		}
	}
	return 0
}
