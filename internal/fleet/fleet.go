// Package fleet shards many independent estimation engines behind one
// process: each tenant is a named subnetwork — one of the paper's two
// backbones, a scenario-lab instance, or a tmgen scenario file — with
// its own collector store, its own stream.Engine and its own checkpoint
// file, while every tenant's full re-solves are multiplexed onto one
// shared runner.Pool. The paper estimates traffic matrices per
// subnetwork (its two backbones are instances of a family); the fleet
// is the serving layer that operates many such subnetworks at once,
// which is what cmd/tmserve exposes over HTTP.
//
// Scheduling is fair by construction. Engines never solve on their own:
// each parks its scheduled re-solve and wakes the fleet through
// stream.Config.ResolveDispatch, and the fleet's scheduler claims parked
// work (stream.Engine.TryResolve) round-robin across tenants with at
// most one solve in flight per tenant — so a drifting 150-PoP tenant
// queues behind its own previous solve, never ahead of a small tenant's
// first.
// Claimed solves run on pool helper slots when one is free and on the
// claiming goroutine otherwise, the same caller-participates discipline
// as runner.Pool.ForEach.
//
// Lifecycle is aggregated: Run starts every tenant's collection,
// ingestion and checkpoint persistence and blocks until the context is
// done; RestoreAll restores every tenant from its checkpoint file under
// one directory before Run; SaveAll persists every tenant, and Run does
// a final SaveAll after the engines have stopped.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/timeline"
	"repro/internal/traffic"
)

// Feed is one tenant's measurement feed: the store its records land in
// and the collection that fills it. Add builds one from the spec's
// source; AddFeed lets a host supply its own.
type Feed struct {
	Store *collector.Store
	// Collect fills Store until the source is exhausted (return nil) or
	// ctx is done (return ctx.Err()).
	Collect func(ctx context.Context) error
}

// TenantState is the lifecycle phase /healthz reports per tenant.
type TenantState string

const (
	// StateIdle: added but Run has not started yet.
	StateIdle TenantState = "idle"
	// StateRunning: collection in progress, snapshots evolving.
	StateRunning TenantState = "running"
	// StateServing: collection finished; the last snapshot is served
	// until the fleet stops.
	StateServing TenantState = "serving"
	// StateFailed: the tenant's engine or collection failed. Other
	// tenants are unaffected; the error is in Status.Error.
	StateFailed TenantState = "failed"
)

// Tenant is one hosted subnetwork: spec, scenario, engine, feed, state.
type Tenant struct {
	spec TenantSpec
	sc   *netsim.Scenario
	eng  *stream.Engine
	feed Feed
	// tl is non-nil for scenario:script tenants: the compiled timeline
	// whose replay drives the feed and whose topology swaps are armed on
	// the engine (by Run, or by RestoreAll after moving a restored engine
	// onto its checkpointed epoch).
	tl *timeline.Timeline
	// lastSave is the UnixNano of the last successful checkpoint write
	// (persistLoop or SaveAll), 0 before the first. Atomic so the
	// scrape-time tm_checkpoint_age_seconds collector and the SLO
	// evaluation never contend with the persist loop.
	lastSave atomic.Int64

	mu         sync.Mutex
	state      TenantState
	err        error
	restored   bool
	swapsArmed bool
}

// Name returns the tenant's unique name.
func (t *Tenant) Name() string { return t.spec.Name }

// Spec returns the spec the tenant was added with.
func (t *Tenant) Spec() TenantSpec { return t.spec }

// Engine exposes the tenant's estimation engine for reading (Latest,
// WaitVersion, Metrics). Lifecycle stays with the fleet.
func (t *Tenant) Engine() *stream.Engine { return t.eng }

// Scenario returns the subnetwork the tenant estimates over.
func (t *Tenant) Scenario() *netsim.Scenario { return t.sc }

// Timeline returns the compiled timeline of a scenario:script tenant,
// nil for every other source.
func (t *Tenant) Timeline() *timeline.Timeline { return t.tl }

// noteSaved records a successful checkpoint write.
func (t *Tenant) noteSaved() { t.lastSave.Store(time.Now().UnixNano()) }

// CheckpointAge is the time since the tenant's last successful
// checkpoint save; ok is false when none has happened yet (including
// every un-checkpointed tenant).
func (t *Tenant) CheckpointAge() (time.Duration, bool) {
	ns := t.lastSave.Load()
	if ns == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, ns)), true
}

// armSwaps arms a script tenant's scripted topology swaps on its
// engine, once; a no-op for other tenants and on repeat calls.
func (t *Tenant) armSwaps() error {
	t.mu.Lock()
	armed := t.swapsArmed
	t.swapsArmed = true
	t.mu.Unlock()
	if t.tl == nil || armed {
		return nil
	}
	return t.tl.RegisterSwaps(t.eng)
}

func (t *Tenant) setState(s TenantState) {
	t.mu.Lock()
	if t.state != StateFailed { // a failure is terminal
		t.state = s
	}
	t.mu.Unlock()
}

// fail marks the tenant failed, reporting whether this call was the
// transition (a tenant can lose both its engine and its collection;
// only the first error sticks and counts).
func (t *Tenant) fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == StateFailed {
		return false
	}
	t.state = StateFailed
	t.err = err
	return true
}

// Status is the JSON shape /v1/tenants and /healthz serve per tenant.
type Status struct {
	Name     string      `json:"name"`
	Source   string      `json:"source"`
	State    TenantState `json:"state"`
	Error    string      `json:"error,omitempty"`
	PoPs     int         `json:"pops"`
	Pairs    int         `json:"pairs"`
	Method   string      `json:"method"`
	Restored bool        `json:"restored"`
	// TopologyEpoch is the engine's active topology epoch — 0 except for
	// scenario:script tenants past a scripted routing change.
	TopologyEpoch int `json:"topology_epoch"`
	// HaveSnapshot/Version/Interval mirror the engine's latest snapshot.
	HaveSnapshot bool   `json:"have_snapshot"`
	Version      uint64 `json:"version"`
	Interval     int    `json:"interval"`
	// Drift/ResolveMRE/AnomalyActive/Anomalies mirror the newest
	// estimation metric point — the observability fields the SLO
	// thresholds judge.
	Drift         float64 `json:"drift"`
	ResolveMRE    float64 `json:"resolve_mre"`
	AnomalyActive bool    `json:"anomaly_active,omitempty"`
	Anomalies     int     `json:"anomalies,omitempty"`
	// CheckpointAgeSeconds is the age of the last successful checkpoint
	// save; absent until one lands (and for un-checkpointed tenants).
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	// Degraded reports an exceeded SLO threshold (TenantSpec.SLO*);
	// DegradedCause names the first one. /healthz aggregates these
	// without changing its HTTP status.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// Status reports the tenant's current lifecycle and snapshot position.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	st, terr, restored := t.state, t.err, t.restored
	t.mu.Unlock()
	s := Status{
		Name:          t.spec.Name,
		Source:        t.spec.Source,
		State:         st,
		PoPs:          t.sc.Net.NumPoPs(),
		Pairs:         t.sc.Net.NumPairs(),
		Method:        t.spec.Method,
		Restored:      restored,
		TopologyEpoch: t.eng.TopologyEpoch(),
	}
	if terr != nil {
		s.Error = terr.Error()
	}
	if version, interval, ok := t.eng.Position(); ok {
		s.HaveSnapshot = true
		s.Version = version
		s.Interval = interval
	}
	if lm, ok := t.eng.LastMetric(); ok {
		s.Drift = lm.Drift
		s.ResolveMRE = lm.ResolveMRE
		s.AnomalyActive = lm.AnomalyActive
		s.Anomalies = lm.Anomalies
	}
	if age, ok := t.CheckpointAge(); ok {
		s.CheckpointAgeSeconds = age.Seconds()
	}
	s.Degraded, s.DegradedCause = t.degraded(s)
	return s
}

// degraded evaluates the spec's SLO thresholds against the live
// status; the first exceeded threshold names the cause.
func (t *Tenant) degraded(s Status) (bool, string) {
	spec := t.spec
	if !s.HaveSnapshot {
		return false, ""
	}
	if spec.SLOMaxDrift > 0 && s.Drift > spec.SLOMaxDrift {
		return true, fmt.Sprintf("drift %.4g above SLO max %g", s.Drift, spec.SLOMaxDrift)
	}
	if spec.SLOMaxResolveMRE > 0 && s.ResolveMRE > spec.SLOMaxResolveMRE {
		return true, fmt.Sprintf("resolve MRE %.4g above SLO max %g", s.ResolveMRE, spec.SLOMaxResolveMRE)
	}
	if maxAge, _ := spec.sloMaxCheckpointAge(); maxAge > 0 {
		if age, ok := t.CheckpointAge(); ok && age > maxAge {
			return true, fmt.Sprintf("checkpoint age %s above SLO max %s", age.Round(time.Millisecond), maxAge)
		}
	}
	return false, ""
}

// Options tunes a Fleet.
type Options struct {
	// CheckpointDir, when non-empty, gives every tenant a checkpoint
	// file <dir>/<name>.ckpt:
	// RestoreAll reads them, Run persists them on every publication and
	// once more at shutdown. The directory is created if missing.
	CheckpointDir string
	// Logf receives per-tenant lifecycle messages (restore, collection
	// finished, checkpoint trouble). Nil discards them.
	Logf func(format string, args ...any)
	// AllowEmpty lets Run start with zero tenants. A cluster standby
	// node boots empty and receives its tenants later through Adopt;
	// everything else keeps the "no tenants is a misconfiguration"
	// error.
	AllowEmpty bool
	// Metrics, when non-nil, is the Prometheus-format registry
	// (internal/obs) the fleet registers its telemetry families on:
	// per-tenant resolve latency/iteration histograms and warm-vs-cold
	// counters fed by every engine's OnResolve hook, plus scrape-time
	// collectors over live engine and scheduler state. The host shares
	// one registry with the serving layer (serve.Options.Metrics) so a
	// single /metrics/prom scrape covers estimation and serving alike.
	Metrics *obs.Registry
}

// Fleet hosts many tenants over one shared re-solve pool. Create with
// New, declare tenants with Add/AddFeed, optionally RestoreAll, then
// Run once.
type Fleet struct {
	pool    *runner.Pool
	opts    Options
	started atomic.Bool
	// metrics is non-nil when Options.Metrics wired a registry in.
	metrics *fleetMetrics

	mu       sync.Mutex
	tenants  []*Tenant
	byName   map[string]*Tenant
	inflight map[string]bool // per-tenant in-flight cap: one solve each
	rr       int             // round-robin claim cursor

	kick chan struct{} // coalesced "work parked" wake-ups

	// Run-lifetime state, guarded by runMu so Adopt can join tenants to
	// a fleet that is already running: runCtx is non-nil exactly while
	// Run's goroutines may still be started (cleared before the final
	// wg.Wait, so a late Adopt can never race the WaitGroup), and
	// ntotal/nfailed keep the all-failed accounting live as adopted
	// tenants arrive.
	runMu     sync.Mutex
	runCtx    context.Context
	wg        sync.WaitGroup
	ntotal    int
	nfailed   int
	allFailed chan struct{}
}

// New creates an empty fleet multiplexing re-solves onto pool.
func New(pool *runner.Pool, opts Options) *Fleet {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &Fleet{
		pool:     pool,
		opts:     opts,
		byName:   make(map[string]*Tenant),
		inflight: make(map[string]bool),
		kick:     make(chan struct{}, 1),
	}
	if opts.Metrics != nil {
		f.registerMetrics(opts.Metrics)
	}
	return f
}

// Pool returns the shared re-solve pool.
func (f *Fleet) Pool() *runner.Pool { return f.pool }

// Add materializes a tenant from its spec: the source is built (or
// loaded), the engine created with the fleet's scheduler as the host of
// its re-solves, and a feed attached — a deterministic replay, or a
// simulated collector deployment for a live: source. Must be called
// before Run.
func (f *Fleet) Add(spec TenantSpec) (*Tenant, error) {
	return f.addSpec(spec, false)
}

// addSpec materializes a tenant from its spec; adopt relaxes the
// "before Run" restriction for Adopt's running-fleet path.
func (f *Fleet) addSpec(spec TenantSpec, adopt bool) (*Tenant, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if strings.HasPrefix(spec.Source, "scenario:script:") {
		return f.addScript(spec, adopt)
	}
	if spec.Source == "" {
		spec.Source = "europe" // the default, echoed into Status
	}
	src, live := strings.CutPrefix(spec.Source, "live:")
	sc, series, err := buildSource(src, spec.seed())
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	pace, _ := spec.pace() // validated above
	cycles := spec.cycles()
	var feed Feed
	if live {
		// One simulated polling interval per pace of wall clock.
		d := collector.NewDeployment(sc.Net, series, collector.DeploymentConfig{
			Pollers:         3,
			DropProb:        0.02,
			MinutesPerMilli: series.Cfg.StepMinutes / (float64(pace) / float64(time.Millisecond)),
			StepMinutes:     series.Cfg.StepMinutes,
			Seed:            spec.seed(),
		})
		feed = Feed{
			Store:   d.Store,
			Collect: func(ctx context.Context) error { return d.RunContext(ctx, cycles) },
		}
	} else {
		store := collector.NewStore(sc.Net.NumPairs())
		feed = Feed{
			Store: store,
			Collect: func(ctx context.Context) error {
				return collector.Replay(ctx, store, series, cycles, pace)
			},
		}
	}
	return f.add(spec, sc, feed, adopt)
}

// addScript materializes a scenario:script:<path> tenant: the timeline
// script is parsed and compiled against its base instance, the feed
// replays the compiled steps (outage holes and all), and the scripted
// routing hot-swaps are armed on the engine when the fleet starts — or
// replayed up to the checkpointed topology epoch by RestoreAll first.
func (f *Fleet) addScript(spec TenantSpec, adopt bool) (*Tenant, error) {
	fail := func(err error) (*Tenant, error) {
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	script, err := timeline.ParseFile(strings.TrimPrefix(spec.Source, "scenario:script:"))
	if err != nil {
		return fail(err)
	}
	tl, _, err := scenario.BuildScript(script, spec.seed())
	if err != nil {
		return fail(err)
	}
	pace, _ := spec.pace() // validated by addSpec
	// For a script tenant Cycles counts whole timeline passes — the
	// script defines its own length in intervals — not single intervals:
	// default 1, -1 repeats until the fleet stops.
	cycles := spec.Cycles
	switch {
	case cycles == 0:
		cycles = 1
	case cycles < 0:
		cycles = int(^uint(0) >> 1)
	}
	store := collector.NewStore(tl.Base.Net.NumPairs())
	feed := Feed{
		Store: store,
		Collect: func(ctx context.Context) error {
			return tl.Replay(ctx, store, cycles, pace)
		},
	}
	t, err := f.add(spec, tl.Base, feed, adopt)
	if err != nil {
		return nil, err
	}
	t.tl = tl
	return t, nil
}

// AddFeed declares a tenant over a caller-supplied measurement feed on
// the caller-built scenario sc. The spec's Source/Seed/Cycles/Pace
// fields are documentation only here (they must still validate); the
// feed rules.
func (f *Fleet) AddFeed(spec TenantSpec, sc *netsim.Scenario, feed Feed) (*Tenant, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if feed.Store == nil || feed.Collect == nil {
		return nil, fmt.Errorf("fleet: tenant %q: feed needs both a store and a collect function", spec.Name)
	}
	return f.add(spec, sc, feed, false)
}

// add creates the engine for a validated spec and registers the tenant.
func (f *Fleet) add(spec TenantSpec, sc *netsim.Scenario, feed Feed, adopt bool) (*Tenant, error) {
	if f.started.Load() && !adopt {
		return nil, fmt.Errorf("fleet: Add after Run (Adopt joins tenants to a running fleet)")
	}
	cfg := streamConfig(spec)
	cfg.ResolveDispatch = f.kickScheduler
	if f.metrics != nil {
		cfg.OnResolve = f.metrics.onResolve(spec.Name)
	}
	eng, err := stream.New(sc.Rt, cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	// Echo the engine's effective method back into the spec, so Status
	// (and hosts printing banners) report "entropy", not "".
	spec.Method = string(cfg.Method)
	t := &Tenant{spec: spec, sc: sc, eng: eng, feed: feed, state: StateIdle}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.byName[spec.Name] != nil {
		return nil, fmt.Errorf("fleet: duplicate tenant name %q", spec.Name)
	}
	f.tenants = append(f.tenants, t)
	f.byName[spec.Name] = t
	return t, nil
}

// streamConfig maps a validated spec onto stream.Config, translating
// the spec's "-1 means off" sentinels (0 is taken by "use the default").
func streamConfig(spec TenantSpec) stream.Config {
	cfg := stream.Config{
		Window:          spec.Window,
		MinCoverage:     0.9,
		ResolveEvery:    3,
		ResolveMaxEvery: spec.ResolveMaxEvery,
		DriftThreshold:  spec.DriftThreshold,
		Method:          stream.MethodEntropy,
		Reg:             spec.Reg,
		SigmaInv2:       spec.SigmaInv2,
		ResolveMaxIter:  spec.ResolveMaxIter,
		ResolveTol:      spec.ResolveTol,
		AnomalyFactor:   spec.AnomalyFactor,
		AnomalyWindow:   spec.AnomalyWindow,
		AnomalyMinDrift: spec.AnomalyMinDrift,
	}
	switch {
	case spec.ResolveEvery > 0:
		cfg.ResolveEvery = spec.ResolveEvery
	case spec.ResolveEvery == -1:
		cfg.ResolveEvery = 0 // incremental gravity only
	}
	if spec.MinCoverage > 0 {
		cfg.MinCoverage = spec.MinCoverage
	}
	if spec.Method != "" {
		cfg.Method = stream.Method(spec.Method)
	}
	return cfg
}

// buildSource resolves a Source string (without its live: prefix) into
// a scenario and the demand series its feed collects.
func buildSource(src string, seed int64) (*netsim.Scenario, *traffic.Series, error) {
	switch {
	case src == "europe":
		sc, err := netsim.BuildEurope(seed)
		if err != nil {
			return nil, nil, err
		}
		return sc, sc.Series, nil
	case src == "america":
		sc, err := netsim.BuildAmerica(seed)
		if err != nil {
			return nil, nil, err
		}
		return sc, sc.Series, nil
	case strings.HasPrefix(src, "scenario:"):
		in, err := scenario.Build(strings.TrimPrefix(src, "scenario:"), seed)
		if err != nil {
			return nil, nil, err
		}
		// The busy evaluation window, so the streaming window mean
		// converges to the instance's ground truth.
		return in.Sc, in.BusySeries(), nil
	case strings.HasPrefix(src, "file:"):
		sc, err := netsim.LoadFile(strings.TrimPrefix(src, "file:"))
		if err != nil {
			return nil, nil, err
		}
		return sc, sc.Series, nil
	}
	return nil, nil, fmt.Errorf("source %q is not europe, america, scenario:<spec>, scenario:script:<file>, file:<path> or live:<source>", src)
}

// Tenants returns the tenants in declaration order.
func (f *Fleet) Tenants() []*Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Tenant, len(f.tenants))
	copy(out, f.tenants)
	return out
}

// Tenant looks a tenant up by name.
func (f *Fleet) Tenant(name string) (*Tenant, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.byName[name]
	return t, ok
}

// checkpointPath resolves a tenant's checkpoint file; "" disables it.
func (f *Fleet) checkpointPath(t *Tenant) string {
	if f.opts.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(f.opts.CheckpointDir, t.spec.Name+".ckpt")
}

// RestoreAll restores every checkpointed tenant from its file, before
// Run: a missing file is a fresh start, an unreadable or mismatched one
// is an operator problem and fails loudly (naming the tenant) rather
// than silently discarding state. Returns how many tenants restored.
func (f *Fleet) RestoreAll() (int, error) {
	restored := 0
	for _, t := range f.Tenants() {
		path := f.checkpointPath(t)
		if path == "" {
			continue
		}
		cp, err := stream.LoadCheckpoint(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return restored, fmt.Errorf("fleet: tenant %q: %w", t.spec.Name, err)
		}
		// Tenant.Restore replays a script tenant's swaps up to the
		// checkpoint's topology epoch, installs the checkpoint and arms
		// the remaining scripted swaps.
		if err := t.Restore(cp); err != nil {
			return restored, fmt.Errorf("fleet: tenant %q: restore %s: %w", t.spec.Name, path, err)
		}
		if snap, ok := t.eng.Latest(); ok {
			f.opts.Logf("tenant %s: restored checkpoint %s (version %d, interval %d) — serving it now",
				t.spec.Name, path, snap.Version, snap.Interval)
		}
		restored++
	}
	return restored, nil
}

// SaveAll checkpoints every checkpointed tenant now. Safe while the
// fleet runs; errors are joined, one per failing tenant.
func (f *Fleet) SaveAll() error {
	var errs []error
	for _, t := range f.Tenants() {
		path := f.checkpointPath(t)
		if path == "" {
			continue
		}
		if err := stream.SaveCheckpoint(path, t.eng.Checkpoint()); err != nil {
			errs = append(errs, fmt.Errorf("fleet: tenant %q: %w", t.spec.Name, err))
			continue
		}
		t.noteSaved()
	}
	return errors.Join(errs...)
}

// Run starts every tenant — ingestion engine, collection feed and (with
// checkpointing) a persist loop — plus the shared re-solve scheduler,
// and blocks until ctx is done. A tenant failure marks that tenant
// failed and never takes its neighbors down; only when EVERY tenant has
// failed does Run stop early and return an error, so a one-tenant fleet
// exits on failure instead of serving nothing forever. After the
// engines have stopped, a final SaveAll persists every tenant's last
// state. Run may be called at most once.
func (f *Fleet) Run(ctx context.Context) error {
	if !f.started.CompareAndSwap(false, true) {
		return fmt.Errorf("fleet: Run called more than once")
	}
	tenants := f.Tenants()
	if len(tenants) == 0 && !f.opts.AllowEmpty {
		return fmt.Errorf("fleet: Run with no tenants")
	}
	if f.opts.CheckpointDir != "" {
		if err := os.MkdirAll(f.opts.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// allFailed closes when the last healthy tenant fails — the one
	// tenant-level error that must surface to the host, because a fleet
	// with nothing left to estimate would otherwise serve stale
	// snapshots forever while looking alive. The count is kept under
	// runMu, not a snapshot of len(tenants), so tenants adopted
	// mid-flight extend the ledger instead of corrupting it.
	allFailed := make(chan struct{})
	f.runMu.Lock()
	f.runCtx = runCtx
	f.allFailed = allFailed
	f.ntotal = len(tenants)
	f.wg.Add(1)
	f.runMu.Unlock()
	go func() {
		defer f.wg.Done()
		f.schedule(runCtx)
	}()

	for _, t := range tenants {
		if err := f.startTenant(runCtx, t); err != nil {
			f.noteFail(t, err, "timeline")
		}
	}

	var runErr error
	select {
	case <-ctx.Done():
		runErr = ctx.Err()
	case <-allFailed:
		var parts []string
		for _, t := range f.Tenants() {
			parts = append(parts, t.spec.Name+": "+t.Status().Error)
		}
		runErr = fmt.Errorf("fleet: every tenant has failed (%s)", strings.Join(parts, "; "))
	}
	cancel()
	// Close the adoption window before waiting: once runCtx is cleared
	// no new goroutine joins the WaitGroup, so Wait cannot race an Add.
	f.runMu.Lock()
	f.runCtx = nil
	f.runMu.Unlock()
	f.wg.Wait()
	f.quiesce()
	// Final persistence after every engine and solve has stopped, so the
	// files hold the very last published state.
	if err := f.SaveAll(); err != nil {
		f.opts.Logf("final checkpoint save: %v", err)
	}
	return runErr
}

// noteFail records a tenant failure exactly once and closes allFailed
// when no healthy tenant is left.
func (f *Fleet) noteFail(t *Tenant, err error, what string) {
	if !t.fail(fmt.Errorf("%s: %w", what, err)) {
		return
	}
	f.opts.Logf("tenant %s: %s failed: %v", t.spec.Name, what, err)
	f.runMu.Lock()
	f.nfailed++
	if f.nfailed == f.ntotal && f.allFailed != nil {
		close(f.allFailed)
	}
	f.runMu.Unlock()
}

// startTenant launches one tenant's goroutines — ingestion engine,
// collection feed and (when checkpointed) the persist loop — after
// arming a script tenant's scripted swaps. An arming error is returned
// (not noted), so Run can count it against the all-failed ledger while
// Adopt refuses the tenant outright.
func (f *Fleet) startTenant(ctx context.Context, t *Tenant) error {
	if err := t.armSwaps(); err != nil {
		return err
	}
	t.setState(StateRunning)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := t.eng.Run(ctx, t.feed.Store); err != nil && !errors.Is(err, context.Canceled) {
			f.noteFail(t, err, "engine")
		}
	}()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := t.feed.Collect(ctx); err != nil {
			if !errors.Is(err, context.Canceled) {
				f.noteFail(t, err, "collect")
			}
			return
		}
		t.setState(StateServing)
		f.opts.Logf("tenant %s: collection finished; serving last snapshot", t.spec.Name)
	}()
	if path := f.checkpointPath(t); path != "" {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.persistLoop(ctx, t, path)
		}()
	}
	return nil
}

// Adopt joins a tenant to the fleet after declaration time — the
// cluster promotion path: a node materializes the tenant from its
// spec, restores the shipped (or locally synced) checkpoint warm, and
// starts serving it immediately when the fleet is already running. A
// nil checkpoint adopts cold. Before Run, Adopt is Add + Restore and
// Run starts the tenant with everything else; after shutdown it fails.
func (f *Fleet) Adopt(spec TenantSpec, cp *stream.Checkpoint) (*Tenant, error) {
	if _, hosted := f.Tenant(spec.Name); hosted {
		return nil, fmt.Errorf("fleet: %w: %q", ErrAlreadyHosted, spec.Name)
	}
	t, err := f.addSpec(spec, true)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := t.Restore(*cp); err != nil {
			f.remove(t)
			return nil, fmt.Errorf("fleet: tenant %q: restore handoff checkpoint: %w", spec.Name, err)
		}
		if snap, ok := t.eng.Latest(); ok {
			f.opts.Logf("tenant %s: adopted checkpoint (version %d, interval %d, topology epoch %d) — serving it now",
				spec.Name, snap.Version, snap.Interval, cp.TopologyEpoch)
		}
	}
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.runCtx == nil {
		if f.started.Load() {
			f.remove(t)
			return nil, fmt.Errorf("fleet: tenant %q: Adopt on a stopped fleet", spec.Name)
		}
		return t, nil // Run has not started yet; it will start the tenant
	}
	f.ntotal++
	if err := f.startTenant(f.runCtx, t); err != nil {
		f.ntotal--
		f.remove(t)
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	return t, nil
}

// remove unregisters a tenant whose adoption failed before it started.
func (f *Fleet) remove(t *Tenant) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.byName, t.spec.Name)
	for i, o := range f.tenants {
		if o == t {
			f.tenants = append(f.tenants[:i], f.tenants[i+1:]...)
			break
		}
	}
}

// persistLoop checkpoints one tenant after every publication (long-poll
// coalesces bursts into one save per turn). A failed save is reported
// and retried on the next publication — persistence trouble must not
// take the estimation service down.
func (f *Fleet) persistLoop(ctx context.Context, t *Tenant, path string) {
	var seen uint64
	save := func() {
		if err := stream.SaveCheckpoint(path, t.eng.Checkpoint()); err != nil {
			f.opts.Logf("tenant %s: checkpoint save: %v", t.spec.Name, err)
			return
		}
		t.noteSaved()
	}
	if snap, ok := t.eng.Latest(); ok {
		// Persist what is already published before waiting: a restored
		// or fast tenant may be quiescent before this loop starts.
		seen = snap.Version
		save()
	}
	for {
		snap, err := t.eng.WaitVersion(ctx, seen+1)
		if err != nil {
			return // shutting down; Run does the final SaveAll
		}
		seen = snap.Version
		save()
	}
}

// kickScheduler is every engine's ResolveDispatch hook: a non-blocking
// coalesced wake-up. It runs on the engines' ingestion goroutines.
func (f *Fleet) kickScheduler() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// schedule is the fleet's re-solve dispatcher: it sleeps until an
// engine parks work, then drains everything parked.
func (f *Fleet) schedule(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.kick:
			f.drain(ctx)
		}
	}
}

// claimNext picks the next tenant with a parked re-solve, round-robin
// from where the previous claim left off, skipping tenants that are
// already solving — the per-tenant in-flight cap of one that keeps a
// big drifting tenant from occupying more than one pool slot.
func (f *Fleet) claimNext() *Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.tenants)
	for i := 0; i < n; i++ {
		t := f.tenants[(f.rr+i)%n]
		if !f.inflight[t.spec.Name] && t.eng.ResolvePending() {
			f.inflight[t.spec.Name] = true
			f.rr = (f.rr + i + 1) % n
			return t
		}
	}
	return nil
}

func (f *Fleet) release(t *Tenant) {
	f.mu.Lock()
	delete(f.inflight, t.spec.Name)
	f.mu.Unlock()
}

// quiesce waits until no solve is in flight (used by Run before the
// final SaveAll; claims made after cancellation consume their parked
// work without solving, so this converges quickly at shutdown).
func (f *Fleet) quiesce() {
	for {
		f.mu.Lock()
		n := len(f.inflight)
		f.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// drain claims parked re-solves and executes them until none are left:
// each claim is handed to a free pool helper when one exists and solved
// on the calling goroutine otherwise, and a helper rejoins the drain
// when its solve finishes — so every pool slot keeps pulling work until
// the fleet is idle again.
func (f *Fleet) drain(ctx context.Context) {
	for ctx.Err() == nil {
		t := f.claimNext()
		if t == nil {
			return
		}
		solve := func() {
			t.eng.TryResolve(ctx)
			f.release(t)
		}
		if !f.pool.TryGo(func() { solve(); f.drain(ctx) }) {
			solve()
		}
	}
}

// Statuses reports every tenant's Status in declaration order (the
// /v1/tenants payload).
func (f *Fleet) Statuses() []Status {
	tenants := f.Tenants()
	out := make([]Status, len(tenants))
	for i, t := range tenants {
		out[i] = t.Status()
	}
	return out
}

// Healthy reports whether no tenant has failed.
func (f *Fleet) Healthy() bool {
	for _, t := range f.Tenants() {
		if t.Status().State == StateFailed {
			return false
		}
	}
	return true
}
