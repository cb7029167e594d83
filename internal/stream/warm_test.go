package stream

import (
	"context"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
)

// waitResolve polls until a re-solve of the given interval has been
// published and returns the snapshot carrying it.
func waitResolve(t *testing.T, eng *Engine, ctx context.Context, interval int) Snapshot {
	t.Helper()
	for v := uint64(1); ; {
		snap, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatalf("waiting for re-solve of interval %d: %v", interval, err)
		}
		if snap.Resolve != nil && snap.ResolveInterval >= interval {
			return snap
		}
		v = snap.Version + 1
	}
}

// TestRunTwiceReturnsError pins the double-Run guard: Run is documented
// "at most once", and the second call must return an error instead of
// running a second ingestion loop over the same window.
func TestRunTwiceReturnsError(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithCancel(context.Background())
	done := host(t, ctx, eng, store)
	for !eng.started.Load() { // wait out the goroutine's startup
		time.Sleep(time.Millisecond)
	}
	// Second concurrent call must fail fast, not panic.
	if err := eng.Run(ctx, store); err == nil {
		t.Fatal("second concurrent Run succeeded")
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("first Run returned %v, want context.Canceled", err)
	}
	// And a call after the first has finished must fail too: the engine's
	// subscription is gone for good.
	if err := eng.Run(context.Background(), store); err == nil {
		t.Fatal("Run after completed Run succeeded")
	}
}

// TestSnapshotVectorsAreDeepCopies pins the aliasing fix: scribbling
// over every vector of a returned snapshot must not change what the
// next reader sees (Latest and WaitVersion both hand out copies).
func TestSnapshotVectorsAreDeepCopies(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3, ResolveEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	if err := collector.Replay(ctx, store, sc.Series, 4, 0); err != nil {
		t.Fatal(err)
	}
	got := waitResolve(t, eng, ctx, 1)
	for _, v := range [][]float64{got.Gravity, got.Mean, got.Fanouts, got.Resolve} {
		for i := range v {
			v[i] = -12345 // a reader gone rogue
		}
	}
	again, err := eng.WaitVersion(ctx, got.Version)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string][]float64{
		"gravity": again.Gravity, "mean": again.Mean, "fanouts": again.Fanouts, "resolve": again.Resolve,
	} {
		for i, x := range v {
			if x == -12345 {
				t.Fatalf("mutating a returned snapshot leaked into %s[%d]", name, i)
			}
		}
	}
	cancel()
	<-done
}

// TestWarmStartTelemetry is the engine-level half of the warm-start
// contract: the first re-solve is cold, the second is warm-started from
// the first's published estimate, consumes fewer solver iterations, and
// both land in the snapshot/metric telemetry.
func TestWarmStartTelemetry(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 4, ResolveEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	feed := func(interval int) {
		for p, mbps := range sc.Series.Demands[interval] {
			store.Ingest(collector.RateRecord{LSP: p, Interval: interval, RateMbps: mbps})
		}
	}
	// First cadence point: intervals 0–1, cold re-solve of interval 1.
	feed(0)
	feed(1)
	cold := waitResolve(t, eng, ctx, 1)
	if cold.ResolveWarm {
		t.Fatal("first re-solve reported as warm-started")
	}
	if cold.ResolveIterations <= 0 {
		t.Fatalf("cold re-solve iterations not reported (%d)", cold.ResolveIterations)
	}
	// Second cadence point: intervals 2–3, warm re-solve of interval 3.
	feed(2)
	feed(3)
	warm := waitResolve(t, eng, ctx, 3)
	if !warm.ResolveWarm {
		t.Fatal("second re-solve not warm-started")
	}
	if warm.ResolveIterations >= cold.ResolveIterations {
		t.Fatalf("warm re-solve consumed %d iterations vs %d cold — want fewer",
			warm.ResolveIterations, cold.ResolveIterations)
	}
	// The telemetry must reach the metric history too.
	var sawWarm bool
	for _, p := range eng.Metrics() {
		if p.ResolveWarm && p.ResolveIterations == warm.ResolveIterations && p.ResolveInterval == warm.ResolveInterval {
			sawWarm = true
		}
	}
	if !sawWarm {
		t.Fatal("warm re-solve telemetry missing from Metrics()")
	}
	cancel()
	<-done
}

// TestAdaptiveCadenceDriftTrigger checks the drift half of the adaptive
// cadence: a window-mean jump past DriftThreshold schedules a re-solve
// immediately, long before the fixed cadence would.
func TestAdaptiveCadenceDriftTrigger(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 4, ResolveEvery: 50, DriftThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	feed := func(interval int, scale float64) {
		for p, mbps := range sc.Series.Demands[0] {
			store.Ingest(collector.RateRecord{LSP: p, Interval: interval, RateMbps: mbps * scale})
		}
	}
	// Three steady intervals: drift ~0, far from the cadence point of 50,
	// so no re-solve may fire.
	for iv := 0; iv < 3; iv++ {
		feed(iv, 1)
	}
	snap, err := eng.WaitVersion(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Resolve != nil {
		t.Fatalf("re-solve fired on a steady window at interval %d", snap.ResolveInterval)
	}
	if snap.Drift > 1e-12 {
		t.Fatalf("steady window reports drift %v, want ~0", snap.Drift)
	}
	// A demand surge: the window mean jumps, drift exceeds the threshold,
	// and the re-solve must land for this interval without waiting out
	// the cadence.
	feed(3, 3)
	got := waitResolve(t, eng, ctx, 3)
	if got.ResolveInterval != 3 {
		t.Fatalf("drift-triggered re-solve covers interval %d, want 3", got.ResolveInterval)
	}
	if got.Drift <= 0.2 {
		t.Fatalf("surge interval reports drift %v, want > threshold 0.2", got.Drift)
	}
	cancel()
	<-done
}

// TestAdaptiveCadenceBackoff checks the steady half: with
// ResolveMaxEvery set, cadence re-solves of a steady window double the
// effective cadence (2 → 4), so the re-solve set over 8 steady
// intervals is exactly {1, 5} rather than the fixed-cadence {1, 3, 5, 7}.
func TestAdaptiveCadenceBackoff(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 4, ResolveEvery: 2, ResolveMaxEvery: 4, DriftThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	// Perfectly steady traffic, fed one interval at a time with the
	// re-solve awaited at each expected cadence point, so latest-wins
	// coalescing cannot blur the schedule.
	feed := func(interval int) {
		for p, mbps := range sc.Series.Demands[0] {
			store.Ingest(collector.RateRecord{LSP: p, Interval: interval, RateMbps: mbps})
		}
	}
	expect := map[int]bool{1: true, 5: true} // backed-off cadence 2, 4, 4...
	for iv := 0; iv < 8; iv++ {
		feed(iv)
		if expect[iv] {
			got := waitResolve(t, eng, ctx, iv)
			if got.ResolveInterval != iv {
				t.Fatalf("re-solve covers interval %d, want %d", got.ResolveInterval, iv)
			}
		}
	}
	// Drain to the final interval, then check no re-solve fired at the
	// fixed-cadence points the back-off skipped (3, 7).
	for v := uint64(1); ; {
		snap, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Interval >= 7 {
			break
		}
		v = snap.Version + 1
	}
	resolved := map[int]bool{}
	for _, p := range eng.Metrics() {
		if p.HasResolve {
			resolved[p.ResolveInterval] = true
		}
	}
	for iv := range resolved {
		if !expect[iv] {
			t.Fatalf("unexpected re-solve of interval %d (resolved set %v, want {1, 5})", iv, resolved)
		}
	}
	for iv := range expect {
		if !resolved[iv] {
			t.Fatalf("missing re-solve of interval %d (resolved set %v)", iv, resolved)
		}
	}
	cancel()
	<-done
}

// TestConfigValidationAdaptive exercises New's checks on the adaptive
// cadence knobs.
func TestConfigValidationAdaptive(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sc.Rt, Config{DriftThreshold: -0.1}); err == nil {
		t.Fatal("negative drift threshold accepted")
	}
	if _, err := New(sc.Rt, Config{DriftThreshold: 0.1}); err == nil {
		t.Fatal("drift threshold without re-solves accepted (it would be silently inert)")
	}
	if _, err := New(sc.Rt, Config{ResolveEvery: 2, ResolveMaxEvery: -4}); err == nil {
		t.Fatal("negative resolve-max-every accepted")
	}
	if _, err := New(sc.Rt, Config{ResolveEvery: 2, ResolveMaxEvery: 8}); err == nil {
		t.Fatal("back-off without a drift threshold accepted")
	}
	if _, err := New(sc.Rt, Config{ResolveEvery: 2, ResolveMaxEvery: 8, DriftThreshold: 0.1}); err != nil {
		t.Fatalf("valid adaptive config rejected: %v", err)
	}
}
