package core

import (
	"math"

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
	share  []uint64      // ShareThresholdWS radix keys and their swap half

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

// GravityWS computes the gravity prior like Gravity, drawing the marginal
// totals AND the returned vector from workspace scratch: the result is
// overwritten by the next GravityWS call on the same workspace, so a
// caller that publishes or otherwise retains the prior beyond one solve
// must Clone it (the regularized solvers only read the prior during the
// solve, which is the intended use). Nil ws allocates everything fresh.
func GravityWS(ws *Workspace, in *Instance) linalg.Vector {
	if ws == nil {
		return Gravity(in)
	}
	net := in.Rt.Net
	te := in.accessTotals(linalg.Grow(&ws.te, net.NumPoPs()), in.Rt.IngressRow)
	tx := in.accessTotals(linalg.Grow(&ws.tx, net.NumPoPs()), in.Rt.EgressRow)
	return GravityFromTotalsInto(linalg.Grow(&ws.prior, net.NumPairs()), net, te, tx, nil)
}

// ShareThresholdWS is ShareThreshold ranking into workspace scratch (nil
// ws allocates it). The values are ranked by an O(n) LSD radix sort over
// floatKey, whose unsigned order is the floats' numeric order, and both
// passes (the total and the running prefix) walk the ascending keys
// backwards, so every value is summed largest first. Equal keys are
// equal bits, and the two orders a comparison sort may give that the
// keys fix (-0 against +0, and where NaNs go) change no sum, so the
// threshold is the same bits a descending comparison sort gives.
func ShareThresholdWS(ws *Workspace, truth linalg.Vector, share float64) float64 {
	if ws == nil {
		ws = new(Workspace)
	}
	keys := radixSortKeys(&ws.share, truth)
	var total float64
	for i := len(keys) - 1; i >= 0; i-- {
		total += keyFloat(keys[i])
	}
	if total <= 0 {
		return 0
	}
	var run float64
	for i := len(keys) - 1; i >= 0; i-- {
		v := keyFloat(keys[i])
		run += v
		if run >= share*total {
			// Everything >= v is in; a threshold a hair below v keeps v.
			return v * (1 - 1e-12)
		}
	}
	return 0
}

// floatKey maps a float's IEEE bits to a key whose unsigned order is the
// float's numeric order: a negative value has every bit flipped, any
// other only its sign bit. -0 sorts just below +0, and NaNs past ±Inf.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// radixSortKeys returns the floatKeys of v sorted ascending, in *buf
// (2·len(v) words, reused across calls). It is an LSD radix sort with
// one counting pass per key byte; a byte every key shares is skipped.
func radixSortKeys(buf *[]uint64, v []float64) []uint64 {
	n := len(v)
	if cap(*buf) < 2*n {
		*buf = make([]uint64, 2*n)
	}
	src, dst := (*buf)[:n], (*buf)[n:2*n]
	var counts [8][256]uint32
	for i, f := range v {
		k := floatKey(f)
		src[i] = k
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if n == 0 || int(c[byte(src[0]>>shift)]) == n {
			continue
		}
		var at uint32
		for d, m := range c {
			c[d], at = at, at+m
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}
