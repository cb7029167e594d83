package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// SolveCache shares the expensive routing-matrix-derived artifacts of the
// estimation methods across solves and across engines: the power-iteration
// operator norm ‖R‖₂² and Vardi's second-moment assembly (transpose
// traversal, moment-row indexing, stacked system). Entries are keyed by
// matrix *equality*, not pointer identity, so tenants built from the same
// scenario (the fleet's common case) share one entry even though each holds
// its own *sparse.Matrix.
//
// A SolveCache is safe for concurrent use. Cached matrices are only ever
// read after construction, so sharing them between concurrently solving
// tenants is safe. Every cached float is computed by the same deterministic
// code path whichever tenant asks first, so serving a value from the cache
// never changes a solver's output bits.
type SolveCache struct {
	mu  sync.Mutex
	ops []*cachedOp
	// sw pools the power-iteration scratch for the cache's own norm
	// computations (guarded by mu, like everything else here).
	sw solver.Workspace
}

// cachedOp is everything derived from one distinct routing matrix.
type cachedOp struct {
	canon   *sparse.Matrix   // first matrix seen with these contents
	aliases []*sparse.Matrix // other pointers known equal to canon
	normSq  float64          // ‖canon‖₂²
	hasNorm bool
	vardi   map[float64]*vardiAssembly // keyed by the moment weight w
}

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{}
}

// lookup returns the cache entry for m, creating one if m's contents have
// not been seen. Caller must hold c.mu. The scan is linear over distinct
// matrices with a pointer fast path over known aliases — fleets hold a
// handful of topologies but hundreds of tenant pointers.
func (c *SolveCache) lookup(m *sparse.Matrix) *cachedOp {
	for _, op := range c.ops {
		if op.canon == m {
			return op
		}
		for _, a := range op.aliases {
			if a == m {
				return op
			}
		}
	}
	for _, op := range c.ops {
		if op.canon.Equal(m) {
			op.aliases = append(op.aliases, m)
			return op
		}
	}
	op := &cachedOp{canon: m}
	c.ops = append(c.ops, op)
	return op
}

// Canonical returns the representative matrix pointer for m's contents:
// the first Equal matrix the cache saw. Tenants sharing a topology map to
// the same pointer, which is what the fleet's same-topology batching keys
// on.
func (c *SolveCache) Canonical(m *sparse.Matrix) *sparse.Matrix {
	if c == nil || m == nil {
		return m
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(m).canon
}

// OpNormSq returns ‖m‖₂² as solver.OperatorNormSq computes it, running the
// power method once per distinct matrix contents. Equal matrices produce
// bit-identical power iterations, so serving the canonical matrix's norm
// for an alias returns exactly the float the alias's own power method
// would have.
func (c *SolveCache) OpNormSq(m *sparse.Matrix) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.lookup(m)
	if !op.hasNorm {
		op.normSq = c.sw.OperatorNormSq(op.canon)
		op.hasNorm = true
	}
	return op.normSq
}

// vardiFor returns the cached moment assembly for (m, w), building it on
// first use (buildVardiAssembly: per-demand link sets off the transpose,
// moment rows indexed in first-use order, the stacked system
// [R; w·second]).
func (c *SolveCache) vardiFor(m *sparse.Matrix, w float64) *vardiAssembly {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.lookup(m)
	if asm, ok := op.vardi[w]; ok {
		return asm
	}
	asm := buildVardiAssembly(&c.sw, op.canon, w)
	if op.vardi == nil {
		op.vardi = make(map[float64]*vardiAssembly, 1)
	}
	op.vardi[w] = asm
	return asm
}

// Workspace bundles the per-engine scratch state of the estimation
// methods: the solver-level buffers (gradients, residuals, momentum
// iterates) plus the method-level staging vectors (sample moments, moment
// right-hand sides, fanout scalings, simplex-projection scratch) and a
// handle on a SolveCache for the matrix-derived artifacts.
//
// Like solver.Workspace, a core Workspace serves one solving goroutine at
// a time; the streaming engine owns one per engine and reuses it across
// its periodic re-solves, which is what makes the steady-state resolve
// loop allocation-free. A workspace only changes where scratch lives,
// never the arithmetic, so an estimate's bits are the same on a fresh
// workspace and on one reused across methods and topologies.
type Workspace struct {
	sw    solver.Workspace
	cache *SolveCache

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

// NewWorkspace returns a workspace backed by the given SolveCache. With a
// nil cache the workspace still amortizes its artifacts across re-solves
// on its own: operator norms are cached per matrix pointer by the solver
// workspace, and Vardi's moment assemblies by a private SolveCache made on
// first use.
func NewWorkspace(cache *SolveCache) *Workspace {
	return &Workspace{cache: cache}
}

// opNormSq returns ‖op‖₂², from the shared cache when there is one.
func (ws *Workspace) opNormSq(op *sparse.Matrix) float64 {
	if ws.cache == nil {
		return ws.sw.OperatorNormSq(op)
	}
	return ws.cache.OpNormSq(op)
}

// solverWS returns the embedded solver workspace primed so that solving
// against op skips the power method.
func (ws *Workspace) solverWS(op *sparse.Matrix) *solver.Workspace {
	ws.sw.Prime(op, ws.opNormSq(op))
	return &ws.sw
}

// vardiFor returns the moment assembly for (m, w) from the workspace's
// SolveCache, making the private one on first use.
func (ws *Workspace) vardiFor(m *sparse.Matrix, w float64) *vardiAssembly {
	if ws.cache == nil {
		ws.cache = NewSolveCache()
	}
	return ws.cache.vardiFor(m, w)
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
	// WS supplies reusable scratch and the SolveCache; nil means a fresh
	// NewWorkspace(nil). The estimate's bits do not depend on it.
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
		ws = NewWorkspace(nil)
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
