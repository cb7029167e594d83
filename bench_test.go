// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablations of the design choices called out in DESIGN.md.
// Each BenchmarkFigXX/BenchmarkTableX runs the corresponding experiment
// driver end to end on the synthetic scenarios; the rendered output
// (identical to cmd/tmbench's) is emitted once per benchmark via b.Log.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment benchmarks are slow; skipping in -short mode")
	}
	suiteOnce.Do(func() { suite, suiteErr = experiments.NewSuiteWithPool(1, runner.NewPool(0)) })
	if suiteErr != nil {
		b.Fatalf("NewSuiteWithPool: %v", suiteErr)
	}
	return suite
}

// runDriver benchmarks one experiment driver and logs its report once.
func runDriver(b *testing.B, id string) {
	s := benchSuite(b)
	d, ok := experiments.DriverByID(id)
	if !ok {
		b.Fatalf("unknown driver %s", id)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		rep, err := d.Run(s, ctx)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = rep
	}
	b.StopTimer()
	var sb strings.Builder
	if err := last.Render(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
}

// benchFullSuite runs every experiment through the concurrent engine at
// the given pool size, so serial (1) and parallel (GOMAXPROCS) wall
// times can be compared directly:
//
//	go test -bench 'FullSuite' -benchtime 1x .
func benchFullSuite(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("full-suite benchmark is slow; skipping in -short mode")
	}
	s, err := experiments.NewSuiteWithPool(1, runner.NewPool(workers))
	if err != nil {
		b.Fatalf("NewSuiteWithPool: %v", err)
	}
	drivers := experiments.AllDrivers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(context.Background(), s, drivers, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.ID, res.Err)
			}
		}
	}
}

func BenchmarkFullSuiteSerial(b *testing.B)   { benchFullSuite(b, 1) }
func BenchmarkFullSuiteParallel(b *testing.B) { benchFullSuite(b, 0) }

func BenchmarkFig01TotalTraffic(b *testing.B)        { runDriver(b, "fig1") }
func BenchmarkFig02CumulativeDemand(b *testing.B)    { runDriver(b, "fig2") }
func BenchmarkFig03SpatialDistribution(b *testing.B) { runDriver(b, "fig3") }
func BenchmarkFig04DemandTimeSeries(b *testing.B)    { runDriver(b, "fig4") }
func BenchmarkFig05FanoutStability(b *testing.B)     { runDriver(b, "fig5") }
func BenchmarkFig06MeanVariance(b *testing.B)        { runDriver(b, "fig6") }
func BenchmarkFig07GravityScatter(b *testing.B)      { runDriver(b, "fig7") }
func BenchmarkFig08WorstCaseBounds(b *testing.B)     { runDriver(b, "fig8") }
func BenchmarkFig09WCBPrior(b *testing.B)            { runDriver(b, "fig9") }
func BenchmarkFig10FanoutWindows(b *testing.B)       { runDriver(b, "fig10") }
func BenchmarkFig11FanoutMRE(b *testing.B)           { runDriver(b, "fig11") }
func BenchmarkTable1Vardi(b *testing.B)              { runDriver(b, "table1") }
func BenchmarkFig12VardiSynthetic(b *testing.B)      { runDriver(b, "fig12") }
func BenchmarkFig13RegularizationSweep(b *testing.B) { runDriver(b, "fig13") }
func BenchmarkFig14RegularizedScatter(b *testing.B)  { runDriver(b, "fig14") }
func BenchmarkFig15PriorComparison(b *testing.B)     { runDriver(b, "fig15") }
func BenchmarkFig16DirectMeasurement(b *testing.B)   { runDriver(b, "fig16") }
func BenchmarkTable2Summary(b *testing.B)            { runDriver(b, "table2") }

// Extension experiments (paper §6 future work; see METHODS.md).
func BenchmarkExt1NoiseSensitivity(b *testing.B)   { runDriver(b, "ext1") }
func BenchmarkExt2UnevaluatedMethods(b *testing.B) { runDriver(b, "ext2") }
func BenchmarkExt3ECMPMismatch(b *testing.B)       { runDriver(b, "ext3") }
func BenchmarkExt4TrafficEngineering(b *testing.B) { runDriver(b, "ext4") }

// --- Ablations (design choices; METHODS.md names the methods) ---

// BenchmarkAblationBayesSolvers times the FISTA solve of the MAP problem
// (eq. 7) on the European network; TestBayesianNNLSAgreesWithFISTA checks
// it against the exact NNLS optimum.
func BenchmarkAblationBayesSolvers(b *testing.B) {
	s := benchSuite(b)
	prior := core.Gravity(s.InstEU)
	b.Run("fista", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Bayesian(s.InstEU, prior, 1000, core.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEntropySolvers times the forward-backward KL-prox
// solver of eq. (6).
func BenchmarkAblationEntropySolvers(b *testing.B) {
	s := benchSuite(b)
	prior := core.Gravity(s.InstEU)
	b.Run("forward-backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Entropy(s.InstEU, prior, 1000, core.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWCBWarmStart times the 2P worst-case-bound LPs sharing
// one warm-started simplex instance, and reports its pivot count.
// TestWorstCaseBoundsWarmMatchesCold compares it with cold starts.
func BenchmarkAblationWCBWarmStart(b *testing.B) {
	s := benchSuite(b)
	b.Run("warm", func(b *testing.B) {
		var pivots int
		for i := 0; i < b.N; i++ {
			bounds, err := core.WorstCaseBounds(s.InstEU)
			if err != nil {
				b.Fatal(err)
			}
			pivots = bounds.Pivots
		}
		b.ReportMetric(float64(pivots), "pivots")
	})
}

// BenchmarkAblationFanoutConstraint times the paper's simplex-constrained
// fanout estimator and reports its MRE.
func BenchmarkAblationFanoutConstraint(b *testing.B) {
	s := benchSuite(b)
	start := s.EU.BusyWindow(experiments.BusyWindowSamples)
	loads := s.EU.LoadSeries(start, 10)
	mean := s.EU.Series.MeanDemand(start, 10)
	th := core.ShareThreshold(mean, 0.9)
	b.Run("simplex", func(b *testing.B) {
		var mre float64
		for i := 0; i < b.N; i++ {
			est, err := core.EstimateFanouts(s.EU.Rt, loads, core.SolveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			mre = core.MRE(est.MeanDemand, mean, th)
		}
		b.ReportMetric(mre, "MRE")
	})
}

// BenchmarkAblationGreedyVsLargest compares the two direct-measurement
// selection strategies of §5.3.6 at equal budget on the European network.
func BenchmarkAblationGreedyVsLargest(b *testing.B) {
	s := benchSuite(b)
	prior := core.Gravity(s.InstEU)
	for _, tc := range []struct {
		name     string
		strategy core.SelectionStrategy
	}{{"greedy", core.GreedyMRE}, {"largest", core.LargestDemand}} {
		b.Run(tc.name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				curve, _, err := core.DirectMeasurementCurve(
					s.InstEU, s.TruthEU, prior, 1000, s.ThreshEU, 6, tc.strategy)
				if err != nil {
					b.Fatal(err)
				}
				final = curve[len(curve)-1]
			}
			b.ReportMetric(final, "final-MRE")
		})
	}
}

// --- Scale benchmarks (the scenario lab's 100-PoP trajectory) ---
//
// These are the benchmarks CI's bench job gates with cmd/benchdiff:
// end-to-end construction and the three scale-evaluated estimators on a
// 100-PoP / 9900-demand backbone. Named with the Scale prefix so
// `go test -bench Scale` selects exactly this set.

var (
	scaleOnce sync.Once
	scaleInst *scenario.Instance
	scaleErr  error
)

func scale100(b *testing.B) *scenario.Instance {
	b.Helper()
	if testing.Short() {
		b.Skip("scale benchmarks are slow; skipping in -short mode")
	}
	scaleOnce.Do(func() { scaleInst, scaleErr = scenario.Build("scaled:100", 1) })
	if scaleErr != nil {
		b.Fatalf("scenario.Build: %v", scaleErr)
	}
	return scaleInst
}

// BenchmarkScaleScenarioBuild100 measures materializing the full 100-PoP
// instance: topology generation, parallel per-source routing, calibrated
// 288-interval traffic, busy-window ground truth.
func BenchmarkScaleScenarioBuild100(b *testing.B) {
	if testing.Short() {
		b.Skip("scale benchmarks are slow; skipping in -short mode")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Build("scaled:100", int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRoute100 isolates routing-matrix construction (one
// Dijkstra tree per source, fanned out on the routing pool).
func BenchmarkScaleRoute100(b *testing.B) {
	if testing.Short() {
		b.Skip("scale benchmarks are slow; skipping in -short mode")
	}
	net, err := topology.Scaled(1, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Route(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScaleMethod benchmarks one scenario-lab method on the shared
// 100-PoP instance and reports its MRE.
func benchScaleMethod(b *testing.B, name string) {
	in := scale100(b)
	var method scenario.Method
	for _, m := range scenario.Methods(scenario.DefaultBudget()) {
		if m.Name == name {
			method = m
		}
	}
	if method.Run == nil {
		b.Fatalf("unknown method %s", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var mre float64
	for i := 0; i < b.N; i++ {
		est, _, err := method.Run(in)
		if err != nil {
			b.Fatal(err)
		}
		mre = core.MRE(est, in.Truth, in.Thresh)
	}
	b.ReportMetric(mre, "MRE")
}

func BenchmarkScaleGravity100(b *testing.B) { benchScaleMethod(b, "gravity") }
func BenchmarkScaleEntropy100(b *testing.B) { benchScaleMethod(b, "entropy") }
func BenchmarkScaleVardi100(b *testing.B)   { benchScaleMethod(b, "vardi") }

// BenchmarkScaleEvaluate100 runs the whole cross-method harness (the
// instance × method grid on the shared pool) over the 100-PoP instance.
func BenchmarkScaleEvaluate100(b *testing.B) {
	in := scale100(b)
	methods := scenario.Methods(scenario.DefaultBudget())
	pool := runner.NewPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := scenario.Evaluate(context.Background(), pool, []*scenario.Instance{in}, methods)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s/%s: %v", r.Spec, r.Method, r.Err)
			}
		}
	}
}

// --- Streaming re-solve benchmarks (cold vs warm start) ---
//
// The internal/stream engine re-solves the full traffic matrix interval
// after interval on a slowly drifting window, warm-starting each solve
// from the previously published estimate. These two benchmarks measure
// exactly that steady-state step — the entropy re-solve of a window
// shifted one interval past an already-solved one, at the engine's
// default budget — cold (from the gravity prior) and warm (from the
// adjacent window's solution). CI's bench job gates both against the
// checked-in baselines; the >= 2x iteration ratio itself is pinned by
// TestEntropyWarmStartEquivalentAndFaster in internal/core.

var (
	streamResolveOnce sync.Once
	streamResolveErr  error
	streamResolveIn   *core.Instance
	streamResolvePre  []linalg.Vector // prior1, prev (warm start)
)

// streamResolveSetup builds the shifted-window pair: the previous
// window's converged estimate is the warm start for the next window's
// solve, exactly as the streaming engine carries it forward.
func streamResolveSetup(b *testing.B) (in *core.Instance, prior, prev linalg.Vector) {
	b.Helper()
	if testing.Short() {
		b.Skip("stream re-solve benchmarks are skipped in -short mode")
	}
	streamResolveOnce.Do(func() {
		sc, err := netsim.BuildEurope(1)
		if err != nil {
			streamResolveErr = err
			return
		}
		const k = 6
		start := sc.BusyWindow(k)
		if start+k+1 > len(sc.Series.Demands) {
			start--
		}
		mean := func(start int) linalg.Vector {
			m := linalg.NewVector(sc.Rt.R.Rows())
			for _, l := range sc.LoadSeries(start, k) {
				linalg.Axpy(1, l, m)
			}
			m.Scale(1 / float64(k))
			return m
		}
		in0, err := core.NewInstance(sc.Rt, mean(start))
		if err != nil {
			streamResolveErr = err
			return
		}
		prev, _, err := core.Entropy(in0, core.Gravity(in0), streamReg, core.SolveOptions{MaxIter: streamIter, Tol: streamTol})
		if err != nil {
			streamResolveErr = err
			return
		}
		in1, err := core.NewInstance(sc.Rt, mean(start+1))
		if err != nil {
			streamResolveErr = err
			return
		}
		streamResolveIn = in1
		streamResolvePre = []linalg.Vector{core.Gravity(in1), prev}
	})
	if streamResolveErr != nil {
		b.Fatal(streamResolveErr)
	}
	return streamResolveIn, streamResolvePre[0], streamResolvePre[1]
}

// streamReg/streamIter/streamTol mirror the stream.Config defaults
// (Reg, ResolveMaxIter, ResolveTol).
const (
	streamReg  = 1000
	streamIter = 20000
	streamTol  = 1e-6
)

func benchStreamResolve(b *testing.B, warm bool) {
	in, prior, prev := streamResolveSetup(b)
	x0 := linalg.Vector(nil)
	if warm {
		x0 = prev
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		_, n, err := core.Entropy(in, prior, streamReg, core.SolveOptions{X0: x0, MaxIter: streamIter, Tol: streamTol})
		if err != nil {
			b.Fatal(err)
		}
		iters = n
	}
	b.ReportMetric(float64(iters), "iterations")
}

func BenchmarkStreamResolveCold(b *testing.B) { benchStreamResolve(b, false) }
func BenchmarkStreamResolveWarm(b *testing.B) { benchStreamResolve(b, true) }

// BenchmarkScenarioBuild measures end-to-end scenario construction
// (topology + routing + calibrated series).
func BenchmarkScenarioBuild(b *testing.B) {
	b.Run("europe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.BuildEurope(int64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("america", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.BuildAmerica(int64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFleetResolveFanout measures multi-tenant re-solve throughput
// on the fleet's shared runner pool: 8 single-region tenants (distinct
// seeds) replay their series concurrently and every tenant's final
// window must complete a full entropy re-solve. This is the serving
// path `tmserve -fleet` runs per re-solve wave; the benchdiff gate
// watches it for scheduler regressions (claim contention, lost
// wake-ups) as much as solver ones.
func BenchmarkFleetResolveFanout(b *testing.B) {
	if testing.Short() {
		b.Skip("fleet fan-out benchmark is slow; skipping in -short mode")
	}
	const tenants, cycles = 8, 4
	scs := make([]*netsim.Scenario, tenants)
	for i := range scs {
		sc, err := netsim.BuildEurope(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		scs[i] = sc
	}
	spec := fleet.TenantSpec{
		Cycles: cycles, Pace: "0", Window: 2, ResolveEvery: cycles,
		Method: "entropy",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f := fleet.New(runner.NewPool(0), fleet.Options{})
		for i, sc := range scs {
			sc, store := sc, collector.NewStore(scs[i].Net.NumPairs())
			s := spec
			s.Name = fmt.Sprintf("t%d", i)
			if _, err := f.AddFeed(s, sc, fleet.Feed{
				Store: store,
				Collect: func(ctx context.Context) error {
					return collector.Replay(ctx, store, sc.Series, cycles, 0)
				},
			}); err != nil {
				b.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- f.Run(ctx) }()
		for _, t := range f.Tenants() {
			for {
				snap, ok := t.Engine().Latest()
				if ok && snap.Resolve != nil && snap.ResolveInterval == cycles-1 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		cancel()
		<-done
	}
	b.StopTimer()
	b.ReportMetric(float64(tenants*b.N)/b.Elapsed().Seconds(), "resolves/s")
}

// benchSource hand-feeds a serve.Hub for the fan-out benchmark: Publish
// makes a snapshot the latest and wakes every pending WaitVersion, like
// a stream.Engine's publication does.
type benchSource struct {
	mu     sync.Mutex
	latest stream.Snapshot
	have   bool
	wake   chan struct{}
}

func newBenchSource() *benchSource { return &benchSource{wake: make(chan struct{})} }

func (s *benchSource) Publish(snap stream.Snapshot) {
	s.mu.Lock()
	s.latest = snap
	s.have = true
	close(s.wake)
	s.wake = make(chan struct{})
	s.mu.Unlock()
}

func (s *benchSource) Latest() (stream.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.have
}

func (s *benchSource) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	for {
		s.mu.Lock()
		if s.have && s.latest.Version >= min {
			snap := s.latest
			s.mu.Unlock()
			return snap, nil
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return stream.Snapshot{}, ctx.Err()
		}
	}
}

// BenchmarkSnapshotFanout is the million-client serving claim's anchor:
// 100k concurrent long-poll clients parked on one tenant's hub, each
// publication serialized exactly once and fanned out to all of them.
// One benchmark iteration is one publication delivered to every client;
// the reported allocs/req must stay ~O(1) — the entry is shared, a
// parked client waits on the hub's one generation channel, and nothing
// is re-encoded per client.
func BenchmarkSnapshotFanout(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-client fan-out benchmark is slow; skipping in -short mode")
	}
	const clients = 100_000
	src := newBenchSource()
	h := serve.NewHub(src, serve.HubConfig{MaxWaiters: clients + 16})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)

	// A realistically sized snapshot: a 100-PoP deployment's ~10k pairs.
	vec := linalg.NewVector(9900)
	for i := range vec {
		vec[i] = float64(i) * 0.25
	}
	snapAt := func(version uint64) stream.Snapshot {
		g := vec.Clone()
		g[0] += float64(version)
		return stream.Snapshot{
			Version: version, Interval: int(version), Window: 6,
			Covered: len(vec), Gravity: g, Mean: vec, Fanouts: vec,
			Time: time.Unix(1700000000, 0).UTC(),
		}
	}

	var served atomic.Uint64
	for i := 0; i < clients; i++ {
		go func() {
			next := uint64(1)
			for {
				e, err := h.WaitMin(ctx, next)
				if err != nil {
					return
				}
				next = e.Version + 1
				served.Add(1)
			}
		}()
	}
	// Every client parked before the clock starts.
	for h.Stats().Waiters < clients {
		time.Sleep(time.Millisecond)
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v := uint64(n + 1)
		src.Publish(snapAt(v))
		for target := uint64(clients) * v; served.Load() < target; {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	requests := uint64(clients) * uint64(b.N)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(requests), "allocs/req")
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "clients/s")
}

// BenchmarkEngineIngest100 is the collector → engine layer's anchor:
// one scaled:100 interval, 9900 Store.Ingest calls, ingested into a
// store a running gravity-only stream.Engine subscribes to, timed until
// the engine publishes it. The store wakes its subscriber only on the
// readiness edges, so the engine scans the store twice per interval,
// not once per record.
func BenchmarkEngineIngest100(b *testing.B) {
	sc := scale100(b).Sc
	eng, err := stream.New(sc.Rt, stream.Config{Window: 6})
	if err != nil {
		b.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, store) }()
	defer func() { cancel(); <-done }()
	ingest := func(iv int) {
		for p, mbps := range sc.Series.Demands[iv%len(sc.Series.Demands)] {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: mbps, Poller: "bench"})
		}
		if _, err := eng.WaitVersion(ctx, uint64(iv+1)); err != nil {
			b.Fatal(err)
		}
	}
	ingest(0) // the first publication sizes the engine's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for n := 1; n <= b.N; n++ {
		ingest(n)
	}
}

// BenchmarkTimelineSwap measures the mid-stream routing hot-swap path:
// a streaming engine primes a warm window on the base topology, one
// adjacency fails (stream.Engine.SwapRouting remaps the warm iterate
// onto the survivor topology), and the next full re-solve runs
// warm-started on the new routing. This is the per-event cost of a
// scripted fail_link/restore timeline; the benchdiff gate watches both
// the wall time and the post-swap iteration count.
func BenchmarkTimelineSwap(b *testing.B) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		b.Fatal(err)
	}
	// First removable interior adjacency that leaves the network routable.
	var failedRt *topology.Routing
	for _, l := range sc.Net.Links {
		if l.Kind != topology.Interior || l.Src > l.Dst {
			continue
		}
		if rt, err := topology.RemoveAdjacency(sc.Net, l.ID).Route(); err == nil {
			failedRt = rt
			break
		}
	}
	if failedRt == nil {
		b.Fatal("no removable adjacency")
	}
	const window, every = 6, 3
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var warmIters int
	for n := 0; n < b.N; n++ {
		eng, err := stream.New(sc.Rt, stream.Config{
			Window: window, ResolveEvery: every, Method: stream.MethodEntropy,
		})
		if err != nil {
			b.Fatal(err)
		}
		store := collector.NewStore(sc.Net.NumPairs())
		runCtx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- eng.Run(runCtx, store) }()
		var version uint64
		feed := func(from, to int) {
			for iv := from; iv < to; iv++ {
				for p, mbps := range sc.Series.Demands[iv] {
					store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: mbps, Poller: "bench"})
				}
				version++
				if _, err := eng.WaitVersion(runCtx, version); err != nil {
					b.Fatal(err)
				}
			}
		}
		resolve := func() stream.Snapshot {
			// An interval's publication precedes its park: wait for it.
			for !eng.ResolvePending() {
				runtime.Gosched()
			}
			if !eng.TryResolve(runCtx) {
				b.Fatal("no parked re-solve")
			}
			version++
			snap, err := eng.WaitVersion(runCtx, version)
			if err != nil {
				b.Fatal(err)
			}
			return snap
		}
		feed(0, window) // parks at intervals 2 and 5
		resolve()       // cold prime on the base topology
		if err := eng.SwapRouting(failedRt, 1, window); err != nil {
			b.Fatal(err)
		}
		feed(window, window+every) // swap applies, parks at interval 8
		snap := resolve()          // warm re-solve on the failed topology
		if !snap.ResolveWarm || snap.TopologyEpoch != 1 {
			b.Fatalf("post-swap re-solve warm=%v epoch=%d", snap.ResolveWarm, snap.TopologyEpoch)
		}
		warmIters = snap.ResolveIterations
		cancel()
		<-done
	}
	b.ReportMetric(float64(warmIters), "swap-iterations")
}

// BenchmarkPromScrape is the observability layer's anchor: one full
// GET /metrics/prom render over a registry shaped like an 8-tenant
// fleet daemon's — per-tenant latency/iteration histograms with
// recorded observations, warm/cold resolve counters, and scrape-time
// gauge collectors. One iteration is one text-exposition encode; the
// benchdiff gate watches ns/op and allocs/op, pinning the encoder's
// single-buffer render (a scrape must not cost per-sample heap
// traffic, or a 15s-interval Prometheus would tax every tenant).
func BenchmarkPromScrape(b *testing.B) {
	reg := obs.NewRegistry()
	tenants := make([]string, 8)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%02d", i)
	}
	durs := reg.Histogram("tm_resolve_duration_seconds", "Wall-clock latency of completed full re-solves.", nil, "tenant")
	iters := reg.Histogram("tm_resolve_iterations", "Solver iterations per completed full re-solve.",
		[]float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 20000}, "tenant")
	resolves := reg.Counter("tm_resolves_total", "Completed full re-solves by warm-vs-cold start.", "tenant", "warm")
	for ti, tn := range tenants {
		for k := 0; k < 64; k++ {
			durs.With(tn).Observe(float64(ti+1) * float64(k) * 0.003)
			iters.With(tn).Observe(float64(50 + 97*k))
		}
		resolves.With(tn, "true").Add(60)
		resolves.With(tn, "false").Add(4)
	}
	perTenant := func(scale float64) func(obs.Emit) {
		return func(emit obs.Emit) {
			for i, tn := range tenants {
				emit(scale*float64(i+1), tn)
			}
		}
	}
	for _, g := range []struct {
		name  string
		scale float64
	}{
		{"tm_snapshot_version", 40}, {"tm_interval", 23}, {"tm_window_intervals", 6},
		{"tm_window_coverage", 0.115}, {"tm_drift", 0.0125}, {"tm_topology_epoch", 1},
		{"tm_gravity_mre", 0.021}, {"tm_resolve_mre", 0.011}, {"tm_anomaly_active", 0},
	} {
		reg.GaugeFunc(g.name, "bench gauge "+g.name+".", []string{"tenant"}, perTenant(g.scale))
	}
	reg.CounterFunc("tm_anomalies_total", "Drift-anomaly episodes.", []string{"tenant"}, perTenant(2))
	reg.GaugeFunc("tm_fleet_tenants", "Tenants hosted.", nil, func(emit obs.Emit) { emit(8) })

	var n int64
	{
		m, err := reg.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		n = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "exposition-bytes")
}
