// Package stream turns the batch reproduction into the continuously
// running estimation service the paper's infrastructure implies (§5.1:
// measurements are collected "continuously, 24 hours per day"): an Engine
// subscribes to the collector's poll windows as the central store fills,
// maintains sliding-window link-load and fanout state, refreshes a cheap
// incremental gravity estimate (eq. 5) after every consumed interval, and
// periodically parks a full re-solve — entropy (eq. 6), Bayesian (eq. 7),
// Vardi's second-moment method (§4.2.2) or the paper's constant-fanout
// estimator (§4.2.4) — in a latest-wins slot that its host runs with
// TryResolve (internal/fleet multiplexes many engines' re-solves onto one
// worker pool), so a slow solve never blocks interval ingestion and a
// stale pending window is superseded rather than queued.
//
// Because backbone demand drifts slowly between intervals (the premise
// of the paper's Figs. 4–5), each full re-solve is warm-started from the
// previously published estimate, which cuts the steady-state iteration
// count by several times versus a cold start; the cadence is optionally
// adaptive, re-solving immediately when the window mean drifts past a
// threshold and backing off while it is steady. The evolving traffic
// matrix is exposed through a versioned Snapshot API (Latest /
// WaitVersion) that cmd/tmserve serves over HTTP, and the whole engine
// state can be checkpointed to disk and restored across restarts
// (Checkpoint / Restore / SaveCheckpoint / LoadCheckpoint).
package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Method selects the estimator used for the periodic full re-solves.
type Method string

// The full re-solve methods the engine can schedule. Gravity is not
// listed: it is the always-on incremental estimate, not a re-solve.
const (
	MethodEntropy  Method = "entropy" // entropy-regularized tomogravity, eq. (6)
	MethodBayesian Method = "bayes"   // Bayesian MAP estimate, eq. (7)
	MethodVardi    Method = "vardi"   // second-moment matching, §4.2.2
	MethodFanout   Method = "fanout"  // constant-fanout estimation, §4.2.4
)

// Config tunes an Engine.
type Config struct {
	// Window is the sliding-window length in polling intervals, at most
	// MaxWindow; 0 selects 6. Every publication sums the window from its
	// ring, so the window is always bounded.
	Window int
	// MinCoverage is the fraction of LSPs an interval must cover before it
	// may be consumed once later intervals have closed it out. Intervals
	// below it are skipped (counted in Snapshot.Skipped), as are those
	// with a NaN or negative rate or a link load past 1e150. Values <= 0 —
	// including the zero value — select the default of 1 (full coverage
	// required); to accept closed intervals at any coverage, pass a small
	// positive fraction instead.
	MinCoverage float64
	// ResolveEvery schedules a full re-solve after every ResolveEvery
	// consumed intervals; 0 disables re-solves. Only one re-solve is in
	// flight at a time — if the window advances while one runs, only the
	// newest pending window is solved (latest wins).
	ResolveEvery int
	// DriftThreshold makes the re-solve cadence adaptive: when the window
	// drift (relative L1 distance between consecutive window means,
	// Snapshot.Drift) exceeds it, a re-solve is scheduled immediately
	// instead of waiting out the cadence, and the backed-off cadence (see
	// ResolveMaxEvery) snaps back to ResolveEvery. 0 disables drift
	// triggering (pure fixed cadence).
	DriftThreshold float64
	// ResolveMaxEvery caps the adaptive back-off: every time a cadence
	// re-solve fires with all drift since the previous re-solve at or
	// below DriftThreshold/2 (a steady window), the effective cadence
	// doubles, up to ResolveMaxEvery; any drift trigger resets it to
	// ResolveEvery. Values <= ResolveEvery (including 0) disable the
	// back-off. Requires DriftThreshold > 0 — without a drift signal the
	// engine cannot tell steady from moving.
	ResolveMaxEvery int
	// Method is the re-solve estimator. Defaults to MethodEntropy.
	Method Method
	// Reg is the regularization parameter for MethodEntropy/MethodBayesian
	// (the paper sweeps it in Fig. 13). Defaults to 1000.
	Reg float64
	// ResolveMaxIter and ResolveTol budget each full re-solve. The
	// defaults (20000, 1e-6) stop at the point where the scoring metrics
	// have stabilized; the batch estimators' 1e-9 would spend the entire
	// budget crawling along the routing matrix's nullspace on every
	// re-solve, erasing the warm-start advantage.
	ResolveMaxIter int
	ResolveTol     float64
	// SigmaInv2 is σ⁻² for MethodVardi (Table 1). Defaults to 0.01.
	SigmaInv2 float64
	// ResolveDispatch, when non-nil, is called once every time a
	// scheduled window is parked as the engine's single pending re-solve
	// (latest wins), so the host knows work is waiting; nil means the
	// host polls ResolvePending instead. The engine never solves on its
	// own: the host runs parked work with TryResolve, typically on a
	// worker pool shared by many engines (internal/fleet).
	// ResolveDispatch runs on the engine's ingestion goroutine and must
	// not block.
	ResolveDispatch func()
	// OnResolve, when non-nil, observes every executed full re-solve with
	// its wall-clock duration, solver iteration count and warm/cold
	// start, and err set
	// when the solve failed (the estimator refused the window, e.g. for
	// non-finite loads; the previous estimate stays published and
	// iters and warm are then zero). The hook is how hosts feed latency
	// histograms and failure counters (internal/fleet's Prometheus
	// registry) without polling. It runs on the goroutine that called
	// TryResolve, outside the engine's locks, and must not call back
	// into the engine.
	OnResolve func(d time.Duration, iters int, warm bool, err error)
	// AnomalyFactor, when > 0, enables the drift-anomaly detector — the
	// paper's classic downstream use of TM estimation. An interval
	// whose window drift exceeds AnomalyFactor times the rolling
	// baseline (the mean of the last AnomalyWindow non-anomalous
	// drifts, once the baseline is full) and AnomalyMinDrift marks the
	// tenant anomalous (Snapshot.AnomalyActive); the first anomalous
	// interval of an episode increments Snapshot.Anomalies. Anomalous
	// drifts are kept out of the baseline, so a sustained traffic shift
	// stays flagged instead of normalizing itself away.
	AnomalyFactor float64
	// AnomalyWindow is the rolling-baseline length in consumed
	// intervals. Defaults to 8.
	AnomalyWindow int
	// AnomalyMinDrift is the absolute drift floor: spikes below it
	// never fire, whatever the baseline says (a near-zero baseline
	// would otherwise flag noise). Defaults to 0.05.
	AnomalyMinDrift float64
}

// MaxWindow bounds Config.Window. Each consumed interval sums the whole
// window, so its cost grows with the window; 1024 covers the longest
// window the paper's experiments use (fig12's 800-sample Vardi series).
const MaxWindow = 1024

// maxDrift caps Snapshot.Drift. The relative L1 distance divides by the
// previous window mean's L1 norm, which a window of near-zero or
// denormal demands drives toward zero; uncapped, the ratio overflows to
// +Inf, which JSON cannot carry (snapshots, checkpoints) and which
// would poison the anomaly baseline. A drift of maxDrift already means
// the window mean grew a million-fold, past any threshold a host sets.
const maxDrift = 1e6

// metricsHistory bounds the error-metric ring kept for Metrics().
const metricsHistory = 1024

// Snapshot is one published state of the evolving traffic matrix. All
// vectors returned by Latest/WaitVersion are private deep copies, safe
// to retain, mutate and serialize.
type Snapshot struct {
	// Version increases by one on every publication (a consumed interval
	// or a completed re-solve). It never runs backwards, so a client can
	// long-poll with WaitVersion(v+1).
	Version uint64 `json:"version"`
	// Interval is the newest polling interval included in the window.
	Interval int `json:"interval"`
	// Window is the number of intervals currently aggregated.
	Window int `json:"window"`
	// Covered is the LSP coverage of the newest consumed interval.
	Covered int `json:"covered"`
	// Skipped counts intervals dropped so far (see Config.MinCoverage).
	Skipped int `json:"skipped"`
	// Drift is the relative L1 distance between this window mean and the
	// previous interval's — the signal the adaptive re-solve cadence
	// watches (0 on the first interval), capped at 1e6 (maxDrift).
	Drift float64 `json:"drift"`
	// TopologyEpoch counts the routing hot-swaps applied so far (see
	// SwapRouting): 0 until the first swap, then the host-assigned tag
	// of the active topology. Intervals consumed under different epochs
	// were measured under different routing matrices.
	TopologyEpoch int `json:"topology_epoch"`
	// AnomalyActive reports the drift-anomaly detector's current state
	// (always false with the detector disabled — Config.AnomalyFactor).
	AnomalyActive bool `json:"anomaly_active,omitempty"`
	// Anomalies counts anomaly episodes so far: each rising edge of
	// AnomalyActive adds one, so a 5-interval flash crowd is one
	// anomaly, not five.
	Anomalies int `json:"anomalies,omitempty"`

	// Gravity is the incremental gravity estimate over the window mean
	// (Mbps per PoP pair).
	Gravity linalg.Vector `json:"gravity"`
	// Mean is the collected window-mean traffic matrix — the direct MPLS
	// measurement the estimates are scored against.
	Mean linalg.Vector `json:"mean"`
	// Fanouts is the sliding-window fanout state α_nm = Mean_nm / Σ_m
	// Mean_nm derived from the collected matrix (the paper's Figs. 4–5
	// quantity, updated online).
	Fanouts linalg.Vector `json:"fanouts"`
	// GravityMRE scores Gravity against Mean over the demands carrying
	// 90% of traffic (eq. 8).
	GravityMRE float64 `json:"gravity_mre"`

	// Resolve is the latest completed full re-solve (nil until the first
	// one lands — the JSON key is absent exactly then, which is the
	// sentinel clients should test). It may lag the window by a few
	// intervals. The companion fields below are always serialized, since
	// 0 is a legitimate value for an interval index or an MRE.
	Resolve linalg.Vector `json:"resolve,omitempty"`
	// ResolveMethod names the estimator that produced Resolve.
	ResolveMethod Method `json:"resolve_method,omitempty"`
	// ResolveMRE scores Resolve against the window mean it was solved on.
	ResolveMRE float64 `json:"resolve_mre"`
	// ResolveInterval is the newest interval of the re-solved window.
	ResolveInterval int `json:"resolve_interval"`
	// ResolveDuration is how long the re-solve took.
	ResolveDuration time.Duration `json:"resolve_duration_ns"`
	// ResolveIterations is the solver iteration count the re-solve
	// consumed — the quantity the warm-start pipeline drives down.
	ResolveIterations int `json:"resolve_iterations"`
	// ResolveWarm reports whether the re-solve was warm-started from a
	// previously published estimate (false for the cold first solve and
	// after a method change).
	ResolveWarm bool `json:"resolve_warm"`

	// Time is the wall-clock publication time.
	Time time.Time `json:"time"`
}

// cloneVec deep-copies a vector, preserving nil (Resolve's "no re-solve
// yet" sentinel must stay nil, not become an empty slice).
func cloneVec(v linalg.Vector) linalg.Vector {
	if v == nil {
		return nil
	}
	return v.Clone()
}

// cloneForRead returns a deep copy of the snapshot whose vectors are
// private to the caller. Engine internals share snapshot vectors across
// versions (a publication without a fresh re-solve carries the previous
// Resolve forward), so handing interior slices out would let one reader
// corrupt every other reader's — and the engine's own — state.
func (s Snapshot) cloneForRead() Snapshot {
	s.Gravity = cloneVec(s.Gravity)
	s.Mean = cloneVec(s.Mean)
	s.Fanouts = cloneVec(s.Fanouts)
	s.Resolve = cloneVec(s.Resolve)
	return s
}

// MetricPoint is one entry of the estimation-error history: the scoring
// fields of a Snapshot without the matrices, cheap enough to keep and
// serve in bulk.
type MetricPoint struct {
	Version           uint64    `json:"version"`
	Interval          int       `json:"interval"`
	Window            int       `json:"window"`
	Covered           int       `json:"covered"`
	Skipped           int       `json:"skipped"`
	Drift             float64   `json:"drift"`
	TopologyEpoch     int       `json:"topology_epoch"`
	AnomalyActive     bool      `json:"anomaly_active,omitempty"`
	Anomalies         int       `json:"anomalies,omitempty"`
	GravityMRE        float64   `json:"gravity_mre"`
	ResolveMRE        float64   `json:"resolve_mre"`
	ResolveInterval   int       `json:"resolve_interval"`
	ResolveIterations int       `json:"resolve_iterations"`
	ResolveWarm       bool      `json:"resolve_warm"`
	HasResolve        bool      `json:"has_resolve"`
	Time              time.Time `json:"time"`
}

// windowEntry is one consumed interval held in the sliding window.
type windowEntry struct {
	interval int
	demand   linalg.Vector // collected rates (P)
	loads    linalg.Vector // R·demand (L)
}

// resolveWork is one pending full re-solve request (latest wins). It
// pins the routing the window's loads were computed under, so a re-solve
// in flight across a routing hot-swap solves a consistent system instead
// of mixing old loads with the new matrix.
type resolveWork struct {
	rt       *topology.Routing
	interval int
	loads    []linalg.Vector // window link loads, private copies
	mean     linalg.Vector   // window-mean collected matrix
	thresh   float64
}

// Engine is the continuous estimation service. Create it with New,
// optionally Restore a checkpoint, drive it with Run (once), run its
// parked re-solves with TryResolve, and read it with Latest /
// WaitVersion / Metrics / Checkpoint from any goroutine.
type Engine struct {
	cfg Config

	// started flips once: Run is documented "at most once", and a second
	// call must fail cleanly instead of racing the first over the window.
	started atomic.Bool

	mu      sync.RWMutex
	snap    Snapshot
	have    bool
	waiters []chan struct{} // one per parked WaitVersion; closed on publication
	metrics []MetricPoint

	// stateMu guards the consumption and warm-start state below, so
	// Checkpoint can capture a consistent view while the Run goroutine
	// and the host's TryResolve advance it. Never held together with mu.
	// rt lives here too since SwapRouting replaces it mid-stream; the
	// ingestion path reads it under the lock and re-solves pin the
	// routing they were scheduled with (resolveWork.rt).
	stateMu  sync.Mutex
	rt       *topology.Routing
	epoch    int           // active topology epoch tag (0 = as created)
	swaps    []pendingSwap // scheduled hot-swaps, ordered by interval
	ring     []windowEntry
	next     int // next interval index to consume
	skipped  int
	prevMean linalg.Vector // last window mean, for the drift signal
	// Adaptive cadence state: intervals since the last scheduled
	// re-solve, the effective cadence, and the worst drift seen since
	// the last re-solve (the steadiness judge for the back-off).
	sinceResolve int
	curEvery     int
	driftPeak    float64
	// Drift-anomaly detector state (Config.AnomalyFactor): the rolling
	// ring of non-anomalous drifts with its running sum, the active
	// flag and the episode counter.
	anomRing   []float64
	anomIdx    int
	anomActive bool
	anomCount  int
	// Warm-start state, advanced on every successful re-solve: the
	// previous estimate (the x0 of the next one) and, for MethodFanout,
	// the previous solved fanout iterate.
	warmEst   linalg.Vector
	warmAlpha linalg.Vector

	// pending is the parked re-solve: consume overwrites it (latest
	// wins), TryResolve takes it.
	pending atomic.Pointer[resolveWork]

	// Buffer arena, reused between publications instead of allocating per
	// interval / per re-solve. Single-owner invariants: the ingestion
	// goroutine (consume) owns teBuf/txBuf and ingestWS; the goroutine
	// running TryResolve — one at a time, by the host's contract — owns
	// ws and meanBuf.
	// Everything a published Snapshot or a parked resolveWork retains
	// (mean, gravity, fanouts, estimates, ring load vectors) stays
	// freshly allocated and is never recycled.
	teBuf, txBuf linalg.Vector
	ingestWS     core.Workspace
	ws           core.Workspace
	meanBuf      linalg.Vector
	instBuf      core.Instance
}

// New creates an Engine estimating over the given routing.
func New(rt *topology.Routing, cfg Config) (*Engine, error) {
	if cfg.Window < 0 || cfg.Window > MaxWindow {
		return nil, fmt.Errorf("stream: window %d out of range [0, %d]", cfg.Window, MaxWindow)
	}
	if cfg.Window == 0 {
		cfg.Window = 6
	}
	if cfg.MinCoverage <= 0 || cfg.MinCoverage > 1 {
		cfg.MinCoverage = 1
	}
	if cfg.Method == "" {
		cfg.Method = MethodEntropy
	}
	switch cfg.Method {
	case MethodEntropy, MethodBayesian, MethodVardi, MethodFanout:
	default:
		return nil, fmt.Errorf("stream: unknown method %q", cfg.Method)
	}
	if cfg.Reg <= 0 {
		cfg.Reg = 1000
	}
	if cfg.SigmaInv2 <= 0 {
		cfg.SigmaInv2 = 0.01
	}
	if cfg.DriftThreshold < 0 {
		return nil, fmt.Errorf("stream: negative drift threshold %v", cfg.DriftThreshold)
	}
	if cfg.DriftThreshold > 0 && cfg.ResolveEvery <= 0 {
		return nil, fmt.Errorf("stream: drift threshold needs re-solves enabled (ResolveEvery > 0)")
	}
	if cfg.ResolveMaxEvery < 0 {
		return nil, fmt.Errorf("stream: negative resolve-max-every %d", cfg.ResolveMaxEvery)
	}
	if cfg.ResolveMaxEvery > cfg.ResolveEvery && cfg.DriftThreshold == 0 {
		return nil, fmt.Errorf("stream: cadence back-off needs a drift threshold")
	}
	if cfg.ResolveMaxIter <= 0 {
		cfg.ResolveMaxIter = 20000
	}
	if cfg.ResolveTol <= 0 {
		cfg.ResolveTol = 1e-6
	}
	if cfg.AnomalyFactor < 0 {
		return nil, fmt.Errorf("stream: negative anomaly factor %v", cfg.AnomalyFactor)
	}
	if cfg.AnomalyWindow < 0 {
		return nil, fmt.Errorf("stream: negative anomaly window %d", cfg.AnomalyWindow)
	}
	if cfg.AnomalyWindow == 0 {
		cfg.AnomalyWindow = 8
	}
	if cfg.AnomalyMinDrift < 0 {
		return nil, fmt.Errorf("stream: negative anomaly min drift %v", cfg.AnomalyMinDrift)
	}
	if cfg.AnomalyMinDrift == 0 {
		cfg.AnomalyMinDrift = 0.05
	}
	// Presize the window ring (copy-down sliding keeps this its lifetime
	// capacity) and the metrics log's first growth steps.
	return &Engine{
		ring:     make([]windowEntry, 0, cfg.Window+1),
		metrics:  make([]MetricPoint, 0, 64),
		rt:       rt,
		cfg:      cfg,
		curEvery: cfg.ResolveEvery,
		teBuf:    linalg.NewVector(rt.Net.NumPoPs()),
		txBuf:    linalg.NewVector(rt.Net.NumPoPs()),
	}, nil
}

// Run subscribes to the store and processes poll windows until ctx is
// done (returning ctx.Err()) or the subscription is closed by the store
// shutting down (returning nil). It must be called at most once; a
// second call returns an error without touching the running stream. Any
// intervals already in the store are consumed immediately, so Run may be
// started before, during or after the collection it watches. The engine
// must be the store's only consumer: it takes each consumed interval
// out of the store and prunes every interval it has passed, keeping an
// endless run at O(window) store memory.
func (e *Engine) Run(ctx context.Context, store *collector.Store) error {
	if !e.started.CompareAndSwap(false, true) {
		return fmt.Errorf("stream: Engine.Run called more than once")
	}
	wake, cancel := store.Subscribe()
	defer cancel()
	e.scan(store, false)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case _, ok := <-wake:
			// A closed subscription means the store shut down: the
			// collection is over and no record is in flight anymore, so
			// every remaining interval is final and the last scan drains
			// them without the close-out grace, which would otherwise
			// strand the last ones.
			e.scan(store, !ok)
			if !ok {
				return nil
			}
		}
	}
}

// skip records one interval dropped for insufficient coverage (or lost
// entirely) and advances the cursor, atomically w.r.t. Checkpoint. A
// hot-swap scheduled at this interval still applies: the routing changed
// whether or not the measurement survived.
func (e *Engine) skip() {
	e.stateMu.Lock()
	e.applySwapsLocked(e.next)
	e.skipped++
	e.next++
	e.stateMu.Unlock()
}

// meetsCoverage reports whether an interval covering `covered` LSPs
// meets Config.MinCoverage.
func (e *Engine) meetsCoverage(store *collector.Store, covered int) bool {
	return float64(covered) >= e.cfg.MinCoverage*float64(store.NumLSPs())
}

// scan consumes every interval that is ready, in order, then prunes the
// consumed prefix from the store so an endless run holds O(window)
// state. Wake-ups are coalesced edges,
// not a reliable per-interval stream, so readiness is always re-derived
// from the store itself. final marks the scan after the collection has
// ended: every stored interval is then closed, and MinCoverage alone
// decides it (nothing can improve coverage anymore).
func (e *Engine) scan(store *collector.Store, final bool) {
	defer func() { store.Prune(e.next) }() // closure: e.next advances below
	for {
		latest := store.LatestInterval()
		if latest < e.next {
			return
		}
		// Probe coverage first — Matrix clones the full rate vector, so
		// it is only called once the interval will actually be consumed.
		covered, ok := store.Coverage(e.next)
		// An interval is final once records exist two intervals ahead:
		// its pollers produced its records when reading interval k+1's
		// counters, so by the time k+2 records arrive, every poller's
		// round-k+1 uploads — including a lagging backup poller's, which
		// may trail the fastest poller by most of a round plus TCP
		// buffering — have had a full polling interval to land.
		closed := final || latest > e.next+1
		full := ok && covered == store.NumLSPs()
		switch {
		case full, closed && ok && e.meetsCoverage(store, covered):
			// The engine is its store's sole consumer by contract, so it
			// takes the stored vector outright (no per-interval clone).
			rates, covered, ok := store.Take(e.next)
			if !ok { // pruned under our feet; cannot happen with one consumer
				e.skip()
				continue
			}
			e.consume(e.next, rates, covered)
		case closed:
			// Final but under-covered (or entirely lost): skip it rather
			// than stalling the stream behind a hole.
			e.skip()
		default:
			return // still filling; wait for more records
		}
	}
}

// consume folds one collected interval into the sliding window and
// publishes a fresh snapshot with the incremental gravity estimate, or
// skips the interval when a rate or link load is out of range.
func (e *Engine) consume(interval int, rates linalg.Vector, covered int) {
	e.stateMu.Lock()
	e.applySwapsLocked(interval)
	rt := e.rt
	epoch := e.epoch
	net := rt.Net
	loads := rt.LinkLoads(rates)
	if !inRange(rates) || !inRange(loads) {
		// A NaN or Inf would poison every window mean it sits in, and a
		// load past maxLoad overflows gravity's product: skip it like an
		// under-covered one.
		e.skipped++
		e.next = interval + 1
		e.stateMu.Unlock()
		return
	}
	te := linalg.Grow(&e.teBuf, net.NumPoPs())
	tx := linalg.Grow(&e.txBuf, net.NumPoPs())
	e.ring = append(e.ring, windowEntry{interval: interval, demand: rates, loads: loads})
	if len(e.ring) > e.cfg.Window {
		// Slide by copying down rather than re-slicing, so the ring keeps
		// its full capacity forever (a re-sliced ring sheds one slot per
		// interval and re-grows, allocating on an endless run).
		copy(e.ring, e.ring[1:])
		e.ring = e.ring[:len(e.ring)-1]
	}
	e.next = interval + 1
	windowLen := len(e.ring)
	k := float64(windowLen)
	skipped := e.skipped

	// The window mean and the gravity inputs te/tx are summed from the
	// ring, oldest first, so a publication is a function of its window
	// alone: a restored engine publishes the same bits as one that never
	// stopped. The cost is O(window·P) per interval.
	for pop := 0; pop < net.NumPoPs(); pop++ {
		in, out := rt.IngressRow(pop), rt.EgressRow(pop)
		var sin, sout float64
		for _, w := range e.ring {
			sin += w.loads[in]
			sout += w.loads[out]
		}
		te[pop] = sin / k
		tx[pop] = sout / k
	}
	mean := demandTotal(e.ring, net.NumPairs())
	mean.Scale(1 / k)

	// Window drift and the re-solve schedule decision. A drift trigger
	// fires as soon as the window moves past the threshold; a cadence
	// re-solve of a steady window doubles the effective cadence up to
	// ResolveMaxEvery (see Config).
	var drift float64
	if e.prevMean != nil {
		drift = linalg.RelL1(mean, e.prevMean)
		if !(drift < maxDrift) { // also catches +Inf and NaN
			drift = maxDrift
		}
	}
	e.prevMean = mean // never mutated after this point; safe to retain
	anomActive, anomCount := e.detectAnomalyLocked(drift)
	schedule := false
	if e.cfg.ResolveEvery > 0 {
		e.sinceResolve++
		if drift > e.driftPeak {
			e.driftPeak = drift
		}
		switch {
		case e.cfg.DriftThreshold > 0 && drift > e.cfg.DriftThreshold:
			schedule = true
			e.curEvery = e.cfg.ResolveEvery
		case e.sinceResolve >= e.curEvery:
			schedule = true
			if e.cfg.ResolveMaxEvery > e.cfg.ResolveEvery && e.driftPeak <= e.cfg.DriftThreshold/2 {
				e.curEvery *= 2
				if e.curEvery > e.cfg.ResolveMaxEvery {
					e.curEvery = e.cfg.ResolveMaxEvery
				}
			} else {
				e.curEvery = e.cfg.ResolveEvery
			}
		}
		if schedule {
			e.sinceResolve = 0
			e.driftPeak = 0
		}
	}
	var loadsCopy []linalg.Vector
	if schedule {
		// The ring's load vectors are immutable once created (consume
		// builds each exactly once and the window only drops entries, it
		// never recycles them), so the parked re-solve shares them
		// directly; only the slice header is fresh, since a parked work
		// may still be read by the solving goroutine while later consumes
		// run.
		loadsCopy = make([]linalg.Vector, windowLen)
		for i, w := range e.ring {
			loadsCopy[i] = w.loads
		}
	}
	e.stateMu.Unlock()

	gravity := core.GravityFromTotalsInto(nil, net, te, tx)
	thresh := core.ShareThresholdWS(&e.ingestWS, mean, 0.9)
	snap := Snapshot{
		Interval:      interval,
		Window:        windowLen,
		Covered:       covered,
		Skipped:       skipped,
		Drift:         drift,
		TopologyEpoch: epoch,
		AnomalyActive: anomActive,
		Anomalies:     anomCount,
		Gravity:       gravity,
		Mean:          mean,
		Fanouts:       traffic.FanoutsOf(net.NumPoPs(), mean),
		GravityMRE:    core.MRE(gravity, mean, thresh),
	}
	e.publish(snap)

	if schedule {
		// Latest wins: a pending (not yet claimed) re-solve is superseded
		// by the newer window.
		e.pending.Store(&resolveWork{rt: rt, interval: interval, loads: loadsCopy, mean: mean, thresh: thresh})
		if e.cfg.ResolveDispatch != nil {
			e.cfg.ResolveDispatch()
		}
	}
}

// maxLoad caps a usable rate or link load (Mbps): the gravity estimate
// multiplies two loads, which overflows from √MaxFloat64 ≈ 1.3e154 on.
const maxLoad = 1e150

// inRange reports whether every element lies in [0, maxLoad]; NaN fails.
func inRange(v linalg.Vector) bool {
	for _, x := range v {
		if !(x >= 0 && x <= maxLoad) {
			return false
		}
	}
	return true
}

// demandTotal sums the ring's demand vectors, oldest first.
func demandTotal(ring []windowEntry, n int) linalg.Vector {
	sum := linalg.NewVector(n)
	for _, w := range ring {
		linalg.Axpy(1, w.demand, sum)
	}
	return sum
}

// detectAnomalyLocked advances the drift-anomaly detector by one
// consumed interval (stateMu held, called from consume). The baseline
// is the mean of the last AnomalyWindow non-anomalous drifts; it only
// starts judging once full, so a cold start's ramp-up drifts seed it
// instead of tripping it. A drift saturated at maxDrift is an overflow,
// not a level, and never enters the baseline. The baseline is re-summed
// from its short ring each interval, so no running sum can carry a
// huge drift's cancellation error past its eviction.
func (e *Engine) detectAnomalyLocked(drift float64) (active bool, count int) {
	if e.cfg.AnomalyFactor <= 0 {
		return false, 0
	}
	spike := false
	if len(e.anomRing) == e.cfg.AnomalyWindow {
		var sum float64
		for _, d := range e.anomRing {
			sum += d
		}
		base := sum / float64(len(e.anomRing))
		spike = drift > e.cfg.AnomalyMinDrift && drift > e.cfg.AnomalyFactor*base
	}
	if spike {
		if !e.anomActive {
			e.anomCount++
		}
		e.anomActive = true
	} else {
		e.anomActive = false
		// Only non-anomalous drifts feed the baseline: a sustained
		// traffic shift stays flagged instead of normalizing itself.
		if e.anomRing == nil {
			e.anomRing = make([]float64, 0, e.cfg.AnomalyWindow)
		}
		switch {
		case drift >= maxDrift: // saturated: no level to learn from
		case len(e.anomRing) < e.cfg.AnomalyWindow:
			e.anomRing = append(e.anomRing, drift)
		default:
			e.anomRing[e.anomIdx] = drift
			e.anomIdx = (e.anomIdx + 1) % len(e.anomRing)
		}
	}
	return e.anomActive, e.anomCount
}

// publish installs the next snapshot under the write lock, carrying the
// latest re-solve fields forward when the new snapshot has none.
func (e *Engine) publish(snap Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.snap
	snap.Version = prev.Version + 1
	snap.Time = time.Now()
	if snap.Resolve == nil && prev.Resolve != nil {
		snap.Resolve = prev.Resolve
		snap.ResolveMethod = prev.ResolveMethod
		snap.ResolveMRE = prev.ResolveMRE
		snap.ResolveInterval = prev.ResolveInterval
		snap.ResolveDuration = prev.ResolveDuration
		snap.ResolveIterations = prev.ResolveIterations
		snap.ResolveWarm = prev.ResolveWarm
	}
	e.installLocked(snap)
}

// publishResolve merges a completed re-solve into whatever the current
// snapshot is by then — never regressing the window state, which may
// have advanced while the solve ran — and publishes the result.
func (e *Engine) publishResolve(est linalg.Vector, w resolveWork, iters int, warm bool, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap
	snap.Version++
	snap.Time = time.Now()
	snap.Resolve = est
	snap.ResolveMethod = e.cfg.Method
	snap.ResolveMRE = core.MRE(est, w.mean, w.thresh)
	snap.ResolveInterval = w.interval
	snap.ResolveDuration = d
	snap.ResolveIterations = iters
	snap.ResolveWarm = warm
	e.installLocked(snap)
}

// installLocked records a fully assembled snapshot. Callers hold e.mu
// and have already set Version and Time.
func (e *Engine) installLocked(snap Snapshot) {
	e.snap = snap
	e.have = true
	e.metrics = append(e.metrics, MetricPoint{
		Version:           snap.Version,
		Interval:          snap.Interval,
		Window:            snap.Window,
		Covered:           snap.Covered,
		Skipped:           snap.Skipped,
		Drift:             snap.Drift,
		TopologyEpoch:     snap.TopologyEpoch,
		AnomalyActive:     snap.AnomalyActive,
		Anomalies:         snap.Anomalies,
		GravityMRE:        snap.GravityMRE,
		ResolveMRE:        snap.ResolveMRE,
		ResolveInterval:   snap.ResolveInterval,
		ResolveIterations: snap.ResolveIterations,
		ResolveWarm:       snap.ResolveWarm,
		HasResolve:        snap.Resolve != nil,
		Time:              snap.Time,
	})
	if len(e.metrics) > metricsHistory {
		e.metrics = e.metrics[len(e.metrics)-metricsHistory:]
	}
	// Wake every parked WaitVersion. Publishing with no waiters — the
	// steady state — touches no channel at all, where the old
	// close-and-replace channel scheme allocated one per publication.
	for _, ch := range e.waiters {
		close(ch)
	}
	e.waiters = e.waiters[:0]
}

// ResolvePending reports whether a scheduled full re-solve is parked
// waiting for TryResolve. It is a scheduling hint: the answer may be
// stale by the time the host acts on it, which TryResolve tolerates.
func (e *Engine) ResolvePending() bool { return e.pending.Load() != nil }

// TryResolve runs the parked full re-solve, if any, on the calling
// goroutine, reports it through Config.OnResolve and publishes its
// result (a failed one publishes nothing: the last good estimate and
// its warm-start iterates stay), reporting whether it consumed one. It
// is the only way re-solves run. At most one may be in flight per
// engine, so a host must not call it concurrently for the same engine.
// A nothing-pending call returns false immediately; once ctx is done
// the parked work is still consumed — and reported as consumed — but no
// longer solved (the shutdown drain).
func (e *Engine) TryResolve(ctx context.Context) bool {
	w := e.pending.Swap(nil)
	if w == nil {
		return false
	}
	if ctx.Err() != nil {
		return true // consumed, deliberately unsolved
	}
	t0 := time.Now()
	est, iters, warm, err := e.resolve(*w)
	d := time.Since(t0)
	if e.cfg.OnResolve != nil {
		e.cfg.OnResolve(d, iters, warm, err)
	}
	if err == nil {
		e.publishResolve(est, *w, iters, warm, d)
	}
	return true
}

// takeWarm returns the warm-start iterates for the next re-solve (nil
// means cold). Locked: Restore seeds them before Run, re-solves advance
// them, Checkpoint reads them.
func (e *Engine) takeWarm() (est, alpha linalg.Vector) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.warmEst, e.warmAlpha
}

// setWarm records the iterates a successful re-solve ended on. The
// stored slices are only ever handed to solvers as starting points
// (which clone them), never mutated in place, so sharing them with the
// published snapshot is safe.
func (e *Engine) setWarm(est, alpha linalg.Vector) {
	e.stateMu.Lock()
	e.warmEst = est
	if alpha != nil {
		e.warmAlpha = alpha
	}
	e.stateMu.Unlock()
}

// resolve executes the configured full estimation method on one window,
// warm-started from the previous published estimate when one exists.
func (e *Engine) resolve(w resolveWork) (est linalg.Vector, iters int, warm bool, err error) {
	warmEst, warmAlpha := e.takeWarm()
	opt := core.SolveOptions{WS: &e.ws, X0: warmEst, MaxIter: e.cfg.ResolveMaxIter, Tol: e.cfg.ResolveTol}
	switch e.cfg.Method {
	case MethodVardi:
		lam, n, err := core.Vardi(w.rt, w.loads, core.VardiConfig{SigmaInv2: e.cfg.SigmaInv2}, opt)
		if err != nil {
			return nil, 0, false, err
		}
		e.setWarm(lam, nil)
		return lam, n, warmEst != nil, nil
	case MethodFanout:
		opt.X0 = warmAlpha
		fe, err := core.EstimateFanouts(w.rt, w.loads, opt)
		if err != nil {
			return nil, 0, false, err
		}
		e.setWarm(fe.MeanDemand, fe.Alpha)
		return fe.MeanDemand, fe.Iterations, warmAlpha != nil, nil
	}
	meanLoads := linalg.Grow(&e.meanBuf, len(w.loads[0]))
	meanLoads.Zero()
	for _, t := range w.loads {
		linalg.Axpy(1, t, meanLoads)
	}
	meanLoads.Scale(1 / float64(len(w.loads)))
	if len(meanLoads) != w.rt.R.Rows() {
		return nil, 0, false, fmt.Errorf("stream: %d loads for %d links", len(meanLoads), w.rt.R.Rows())
	}
	// The instance and gravity prior live only for this solve (solvers
	// read them, the published estimate is always fresh), so both come
	// out of the resolve-owned arena instead of being allocated per call.
	e.instBuf = core.Instance{Rt: w.rt, Loads: meanLoads}
	inst := &e.instBuf
	prior := core.GravityWS(&e.ws, inst)
	var x linalg.Vector
	var n int
	if e.cfg.Method == MethodBayesian {
		x, n, err = core.Bayesian(inst, prior, e.cfg.Reg, opt)
	} else {
		x, n, err = core.Entropy(inst, prior, e.cfg.Reg, opt)
	}
	if err != nil {
		return nil, 0, false, err
	}
	e.setWarm(x, nil)
	return x, n, warmEst != nil, nil
}

// Latest returns a deep copy of the newest snapshot; ok is false before
// the first interval has been consumed.
func (e *Engine) Latest() (snap Snapshot, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snap.cloneForRead(), e.have
}

// Position returns the newest snapshot's version and interval without
// copying its matrices — the cheap read for status and health endpoints
// that poll every engine (the fleet's /v1/tenants and /healthz), where
// Latest's deep copy of four vectors per tenant per probe would be pure
// waste.
func (e *Engine) Position() (version uint64, interval int, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snap.Version, e.snap.Interval, e.have
}

// WaitVersion blocks until a snapshot with Version >= min is published
// (returning a deep copy of it) or ctx is done (returning ctx.Err()).
// WaitVersion(ctx, 0) waits for the first snapshot.
func (e *Engine) WaitVersion(ctx context.Context, min uint64) (Snapshot, error) {
	for {
		e.mu.Lock()
		if e.have && e.snap.Version >= min {
			snap := e.snap.cloneForRead()
			e.mu.Unlock()
			return snap, nil
		}
		// Park: the next publication closes ch. The channel is a one-shot
		// broadcast, so an abandoning waiter (ctx done) just leaves it for
		// installLocked to close — no removal bookkeeping needed.
		ch := make(chan struct{})
		e.waiters = append(e.waiters, ch)
		e.mu.Unlock()
		select {
		case <-ctx.Done():
			return Snapshot{}, ctx.Err()
		case <-ch:
		}
	}
}

// LastMetric returns the newest estimation-error point without copying
// the history — the cheap per-tenant read scrape-time collectors poll
// on every /metrics/prom render.
func (e *Engine) LastMetric() (MetricPoint, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.metrics) == 0 {
		return MetricPoint{}, false
	}
	return e.metrics[len(e.metrics)-1], true
}

// Metrics returns a copy of the estimation-error history, oldest first.
func (e *Engine) Metrics() []MetricPoint {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]MetricPoint, len(e.metrics))
	copy(out, e.metrics)
	return out
}
