package stream

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

// replayInto runs an engine against a store fed by a deterministic replay
// of the scenario's series, waits until minVersion is published, shuts
// the engine down cleanly, and returns the store for inspection. Nothing
// runs parked re-solves: they stay parked for the caller's TryResolve.
func replayInto(t *testing.T, sc *netsim.Scenario, eng *Engine, cycles int, minVersion uint64) *collector.Store {
	t.Helper()
	defer leakcheck.Check(t)()
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, store) }()
	if err := collector.Replay(ctx, store, sc.Series, cycles, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if _, err := eng.WaitVersion(ctx, minVersion); err != nil {
		t.Fatalf("WaitVersion(%d): %v", minVersion, err)
	}
	cancel()
	if err := <-done; err != context.Canceled && err != context.DeadlineExceeded {
		t.Fatalf("Run returned %v, want context cancellation", err)
	}
	return store
}

// TestIncrementalMatchesBatch is the tentpole acceptance check: after a
// replayed collection with evictions, the engine's incremental gravity
// estimate must match a from-scratch batch gravity solve over the same
// window to within 1e-9.
func TestIncrementalMatchesBatch(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, window = 10, 4
	eng, err := New(sc.Rt, Config{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, eng, cycles, cycles)

	snap, ok := eng.Latest()
	if !ok {
		t.Fatal("no snapshot after replay")
	}
	if snap.Interval != cycles-1 || snap.Window != window {
		t.Fatalf("snapshot at interval %d window %d, want %d/%d", snap.Interval, snap.Window, cycles-1, window)
	}

	matchBatch(t, sc, snap, cycles-window, cycles)
}

// matchBatch checks a snapshot's incremental gravity estimate and window
// mean against a from-scratch batch gravity solve over the series
// intervals [from, to) to within 1e-9. The reference averages the
// window's link loads from the ground truth (a lossless replay collects
// exactly the true demands).
func matchBatch(t *testing.T, sc *netsim.Scenario, snap Snapshot, from, to int) {
	t.Helper()
	meanLoads := linalg.NewVector(sc.Rt.R.Rows())
	meanDemand := linalg.NewVector(sc.Net.NumPairs())
	for k := from; k < to; k++ {
		linalg.Axpy(1, sc.Rt.LinkLoads(sc.Series.Demands[k]), meanLoads)
		linalg.Axpy(1, sc.Series.Demands[k], meanDemand)
	}
	meanLoads.Scale(1 / float64(to-from))
	meanDemand.Scale(1 / float64(to-from))
	inst, err := core.NewInstance(sc.Rt, meanLoads)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.Gravity(inst)

	for p := range batch {
		if d := math.Abs(batch[p] - snap.Gravity[p]); d > 1e-9 {
			t.Fatalf("demand %d: incremental %v vs batch %v (diff %g > 1e-9)", p, snap.Gravity[p], batch[p], d)
		}
		if d := math.Abs(meanDemand[p] - snap.Mean[p]); d > 1e-9 {
			t.Fatalf("demand %d: window mean %v vs batch %v (diff %g > 1e-9)", p, snap.Mean[p], meanDemand[p], d)
		}
	}
}

// TestNonFiniteIntervalsSkipped interleaves an interval with one NaN
// rate and one with every rate at 1e308 (each link load overflows to
// +Inf) with clean ones. Both must be skipped like under-covered
// intervals: were either folded into the window, its NaN or Inf would
// poison every snapshot published while it stayed there, and every
// re-solve of those windows.
func TestNonFiniteIntervalsSkipped(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	const window, cycles = 3, 8
	eng, err := New(sc.Rt, Config{Window: window, ResolveEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(P)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	for iv := 0; iv < cycles; iv++ {
		for p, mbps := range sc.Series.Demands[iv] {
			switch {
			case iv == 1 && p == 7:
				mbps = math.NaN()
			case iv == 3:
				mbps = 1e308
			}
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: mbps})
		}
	}
	var snap Snapshot
	for v := uint64(1); snap.Interval < cycles-1; v = snap.Version + 1 {
		if snap, err = eng.WaitVersion(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	<-done

	if snap.Interval != cycles-1 || snap.Window != window || snap.Skipped != 2 {
		t.Fatalf("snapshot interval %d window %d skipped %d, want %d/%d/2",
			snap.Interval, snap.Window, snap.Skipped, cycles-1, window)
	}
	for _, p := range eng.Metrics() {
		if !finite(p.Drift, p.GravityMRE, p.ResolveMRE) {
			t.Fatalf("version %d (interval %d) published drift %v gravity MRE %v resolve MRE %v",
				p.Version, p.Interval, p.Drift, p.GravityMRE, p.ResolveMRE)
		}
	}
	for name, v := range map[string]linalg.Vector{"gravity": snap.Gravity, "mean": snap.Mean, "fanouts": snap.Fanouts} {
		if !v.AllFinite() {
			t.Fatalf("final snapshot %s is not finite", name)
		}
	}
	matchBatch(t, sc, snap, cycles-window, cycles)
}

// finite reports whether every x is a finite number.
func finite(xs ...float64) bool {
	return linalg.Vector(xs).AllFinite()
}

// TestVersionsMonotonic checks that every publication bumps the version
// by exactly one and that the metric history matches; the store must
// hold none of the consumed intervals afterwards (the O(window) memory
// property of an endless run).
func TestVersionsMonotonic(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 8
	store := replayInto(t, sc, eng, cycles, cycles)
	if n := len(store.Intervals()); n != 0 {
		t.Fatalf("store still holds %d consumed intervals, want 0 (consumed intervals are pruned)", n)
	}
	points := eng.Metrics()
	if len(points) != cycles {
		t.Fatalf("got %d metric points, want %d", len(points), cycles)
	}
	for i, p := range points {
		if p.Version != uint64(i+1) {
			t.Fatalf("point %d has version %d, want %d", i, p.Version, i+1)
		}
		if p.Interval != i {
			t.Fatalf("point %d covers interval %d, want %d", i, p.Interval, i)
		}
	}
}

// TestFanoutStateRowsSumToOne checks the sliding-window fanout state: per
// source PoP the fanouts must form a probability row.
func TestFanoutStateRowsSumToOne(t *testing.T) {
	sc, err := netsim.BuildEurope(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, eng, 6, 6)
	snap, _ := eng.Latest()
	n := sc.Net.NumPoPs()
	for src := 0; src < n; src++ {
		var row float64
		for dst := 0; dst < n; dst++ {
			if dst != src {
				row += snap.Fanouts[sc.Net.PairIndex(src, dst)]
			}
		}
		if math.Abs(row-1) > 1e-9 {
			t.Fatalf("fanout row of PoP %d sums to %v", src, row)
		}
	}
}

// TestResolvePublishes checks that periodic full re-solves land in the
// snapshot, scored against the window they were solved on, and that the
// re-solve (entropy) improves on the gravity estimate it refines.
func TestResolvePublishes(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 4, ResolveEvery: 3, Method: MethodEntropy})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	if err := collector.Replay(ctx, store, sc.Series, 6, 0); err != nil {
		t.Fatal(err)
	}
	// The re-solve runs asynchronously: wait for the publication carrying it.
	var snap Snapshot
	for v := uint64(1); ; v++ {
		s, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatalf("no re-solve published: %v", err)
		}
		if s.Resolve != nil {
			snap = s
			break
		}
		v = s.Version
	}
	cancel()
	<-done

	if snap.ResolveMethod != MethodEntropy {
		t.Fatalf("resolve method %q, want entropy", snap.ResolveMethod)
	}
	if len(snap.Resolve) != sc.Net.NumPairs() {
		t.Fatalf("resolve has %d demands, want %d", len(snap.Resolve), sc.Net.NumPairs())
	}
	if snap.ResolveDuration <= 0 {
		t.Fatal("resolve duration not recorded")
	}
	if math.IsNaN(snap.ResolveMRE) || snap.ResolveMRE < 0 {
		t.Fatalf("bad resolve MRE %v", snap.ResolveMRE)
	}
	// Entropy tomography refines the gravity prior with the interior
	// links, so on consistent loads it must not be worse than gravity on
	// the same window (the paper's Fig. 13 / Table 2 relationship).
	grav, ok := eng.Latest()
	if !ok {
		t.Fatal("no snapshot")
	}
	if snap.ResolveMRE > grav.GravityMRE {
		t.Fatalf("entropy re-solve MRE %.4f worse than gravity %.4f", snap.ResolveMRE, grav.GravityMRE)
	}
}

// TestSkipsUndercoveredInterval checks the close-out rule: an interval
// stuck below MinCoverage is skipped once a later interval has records,
// instead of stalling the stream.
func TestSkipsUndercoveredInterval(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	store := collector.NewStore(P)
	eng, err := New(sc.Rt, Config{MinCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)

	// Interval 0: only half the LSPs reported (below the 90% floor).
	for p := 0; p < P/2; p++ {
		store.Ingest(collector.RateRecord{LSP: p, Interval: 0, RateMbps: sc.Series.Demands[0][p]})
	}
	// Fully covered intervals 1 and 2: records two intervals ahead close
	// interval 0 out (one interval of grace for lagging pollers).
	for iv := 1; iv <= 2; iv++ {
		for p := 0; p < P; p++ {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: sc.Series.Demands[iv][p]})
		}
	}
	snap, err := eng.WaitVersion(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	if snap.Skipped != 1 {
		t.Fatalf("skipped %d intervals, want 1", snap.Skipped)
	}
	if snap.Interval != 2 || snap.Window != 2 {
		t.Fatalf("snapshot interval %d window %d, want 2/2", snap.Interval, snap.Window)
	}
}

// TestPartialCoverageConsumedWhenClosed checks the complementary case: a
// closed interval above MinCoverage is used even though it is not fully
// covered — the backup-poller reality of §5.1.2.
func TestPartialCoverageConsumedWhenClosed(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	store := collector.NewStore(P)
	eng, err := New(sc.Rt, Config{MinCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)

	for p := 0; p < P-1; p++ { // one LSP lost: 131/132 ≈ 99% > 90%
		store.Ingest(collector.RateRecord{LSP: p, Interval: 0, RateMbps: sc.Series.Demands[0][p]})
	}
	// Interval 0 is consumed only once records exist two intervals ahead
	// (grace for lagging pollers), so fill intervals 1 and 2 completely.
	for iv := 1; iv <= 2; iv++ {
		for p := 0; p < P; p++ {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: sc.Series.Demands[iv][p]})
		}
	}
	snap, err := eng.WaitVersion(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	if snap.Skipped != 0 {
		t.Fatalf("skipped %d intervals, want 0", snap.Skipped)
	}
	if snap.Window != 3 {
		t.Fatalf("window %d, want 3 (partial interval consumed)", snap.Window)
	}
	first := eng.Metrics()[0]
	if first.Covered != P-1 {
		t.Fatalf("first interval covered %d, want %d", first.Covered, P-1)
	}
}

// TestFinalDrainOnStoreStop checks the end-of-collection path: when the
// store shuts down, trailing intervals that the close-out grace would
// strand (nothing after them to close them out) are drained against
// MinCoverage alone, and Run returns nil as documented.
func TestFinalDrainOnStoreStop(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	store := collector.NewStore(P)
	eng, err := New(sc.Rt, Config{MinCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)

	// A finite lossy collection: the last two intervals are partially
	// covered and have nothing after them to close them out.
	for iv := 0; iv <= 2; iv++ {
		covered := P
		if iv >= 1 {
			covered = P - 2 // ~98%, above the 90% floor
		}
		for p := 0; p < covered; p++ {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: sc.Series.Demands[iv][p]})
		}
	}
	store.Stop() // collection over: closes the engine's subscription
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after store shutdown, want nil", err)
	}
	snap, ok := eng.Latest()
	if !ok {
		t.Fatal("no snapshot after final drain")
	}
	if snap.Interval != 2 || snap.Window != 3 || snap.Skipped != 0 {
		t.Fatalf("final snapshot interval=%d window=%d skipped=%d, want 2/3/0",
			snap.Interval, snap.Window, snap.Skipped)
	}
}

// TestWaitVersionCancellation checks that a blocked WaitVersion returns
// promptly when its context is cancelled.
func TestWaitVersionCancellation(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := eng.WaitVersion(ctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("WaitVersion returned %v, want deadline exceeded", err)
	}
}

// TestConfigValidation exercises New's input checking.
func TestConfigValidation(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 1025} {
		_, err := New(sc.Rt, Config{Window: w})
		if err == nil || !strings.Contains(err.Error(), "window") {
			t.Fatalf("window %d: got %v, want a window error", w, err)
		}
	}
	if _, err := New(sc.Rt, Config{Method: "nonsense"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestHugeRateEvictionKeepsWindowSums passes one rate of 1e140 (below
// maxLoad, so consumed) through a 2-interval window of 100s. While it sits
// in the window it absorbs every rate summed with it; evicting it must
// not lose them: once the spike has left, every snapshot's mean and
// gravity match the exact window, and none is ever negative. A running
// sum that subtracts the evicted spike loses them (1e140 + 100 − 1e140
// = 0), and on pair 1's uneven rates goes negative.
func TestHugeRateEvictionKeepsWindowSums(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	eng, err := New(sc.Rt, Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	uneven := []float64{100, 3, 37.3, 12.9, 250}
	intervals := make([]linalg.Vector, 5)
	for k := range intervals {
		v := linalg.NewVector(P)
		v.Fill(100)
		v[1] = uneven[k]
		if k == 1 {
			v[0], v[1] = 1e140, 1e140
		}
		intervals[k] = v
		eng.consume(k, v.Clone(), P)
		snap, _ := eng.Latest()
		for name, x := range map[string]linalg.Vector{"mean": snap.Mean, "gravity": snap.Gravity} {
			for p, y := range x {
				if !(y >= 0) {
					t.Fatalf("interval %d: %s[%d] = %v", k, name, p, y)
				}
			}
		}
		if k < 3 {
			continue // the spike is still in the window
		}
		want := linalg.NewVector(P)
		linalg.Axpy(0.5, intervals[k-1], want)
		linalg.Axpy(0.5, intervals[k], want)
		for p := range want {
			if math.Abs(snap.Mean[p]-want[p]) > 1e-12*want[p] {
				t.Fatalf("interval %d: mean[%d] = %v, want %v", k, p, snap.Mean[p], want[p])
			}
		}
		inst, err := core.NewInstance(sc.Rt, sc.Rt.LinkLoads(want))
		if err != nil {
			t.Fatal(err)
		}
		for p, g := range core.Gravity(inst) {
			if math.Abs(snap.Gravity[p]-g) > 1e-9*(1+g) {
				t.Fatalf("interval %d: gravity[%d] = %v, want %v", k, p, snap.Gravity[p], g)
			}
		}
	}
}
