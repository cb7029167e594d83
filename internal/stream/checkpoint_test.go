package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

// runReplay drives an engine over a deterministic replay for the given
// cycles, waits until every interval has been published, and shuts it
// down.
func runReplay(t *testing.T, sc *netsim.Scenario, eng *Engine, cycles int) {
	t.Helper()
	runReplayResolve(t, sc, eng, cycles, -1)
}

// runReplayResolve is runReplay that additionally waits — while the
// engine is still running, so the host cannot drop the job during
// shutdown — for a published re-solve covering resolveIv or later (-1
// skips the wait).
func runReplayResolve(t *testing.T, sc *netsim.Scenario, eng *Engine, cycles, resolveIv int) {
	t.Helper()
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	if err := collector.Replay(ctx, store, sc.Series, cycles, 0); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); ; {
		snap, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Interval >= cycles-1 {
			break
		}
		v = snap.Version + 1
	}
	if resolveIv >= 0 {
		waitResolve(t, eng, ctx, resolveIv)
	}
	cancel()
	<-done
}

// snapJSON canonicalizes a snapshot for comparison (reflect.DeepEqual
// trips over time.Time's monotonic clock reading).
func snapJSON(t *testing.T, s Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointRoundTrip is the tentpole persistence check: Checkpoint
// → SaveCheckpoint → LoadCheckpoint → Restore must hand a fresh engine
// the same published snapshot (served immediately, before Run) and the
// same metric history, and the restored engine must resume consuming
// exactly where the original stopped and publish the same bits as an
// uninterrupted run. The splits include checkpoints taken after the
// window has slid many times, where any state the window does not
// determine (a running sum, say) would show.
func TestCheckpointRoundTrip(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ window, firstLeg, total int }{
		{4, 10, 14},
		{6, 8, 24},
		{6, 20, 40},
	} {
		t.Run(fmt.Sprintf("window%d-%dto%d", tc.window, tc.firstLeg, tc.total), func(t *testing.T) {
			checkRoundTrip(t, sc, Config{Window: tc.window, ResolveEvery: 3}, tc.firstLeg, tc.total)
		})
	}
}

func checkRoundTrip(t *testing.T, sc *netsim.Scenario, cfg Config, firstLeg, total int) {
	orig, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, orig, firstLeg)

	path := filepath.Join(t.TempDir(), "engine.ckpt")
	if err := SaveCheckpoint(path, orig.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}

	// The restored engine serves the original's snapshot before Run — the
	// "restarted daemon is never dark" property.
	origSnap, ok := orig.Latest()
	if !ok {
		t.Fatal("original has no snapshot")
	}
	restSnap, ok := restored.Latest()
	if !ok {
		t.Fatal("restored engine dark before Run")
	}
	if a, b := snapJSON(t, origSnap), snapJSON(t, restSnap); a != b {
		t.Fatalf("restored snapshot differs:\n%s\nvs\n%s", a, b)
	}
	origMetrics, _ := json.Marshal(orig.Metrics())
	restMetrics, _ := json.Marshal(restored.Metrics())
	if string(origMetrics) != string(restMetrics) {
		t.Fatal("restored metric history differs")
	}

	// Resume: the restored engine must pick up at interval firstLeg
	// (replay re-feeds 0..firstLeg-1, which the cursor skips) and its
	// final window must publish an uninterrupted engine's bits.
	runReplay(t, sc, restored, total)
	uninterrupted, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, uninterrupted, total)

	got, _ := restored.Latest()
	want, _ := uninterrupted.Latest()
	if got.Interval != want.Interval || got.Window != want.Window {
		t.Fatalf("resumed at interval %d window %d, want %d/%d", got.Interval, got.Window, want.Interval, want.Window)
	}
	for name, v := range map[string][2]linalg.Vector{
		"gravity": {got.Gravity, want.Gravity},
		"mean":    {got.Mean, want.Mean},
		"fanouts": {got.Fanouts, want.Fanouts},
	} {
		differ := 0
		for p := range v[1] {
			if math.Float64bits(v[0][p]) != math.Float64bits(v[1][p]) {
				differ++
			}
		}
		if differ > 0 || len(v[0]) != len(v[1]) {
			t.Errorf("resumed %s differs from uninterrupted in %d of %d coordinates", name, differ, len(v[1]))
		}
	}
	if math.Float64bits(got.GravityMRE) != math.Float64bits(want.GravityMRE) {
		t.Errorf("resumed gravity MRE %v, uninterrupted %v", got.GravityMRE, want.GravityMRE)
	}
	// Versions must continue from the restored point, never regress.
	if got.Version <= origSnap.Version {
		t.Fatalf("resumed version %d did not advance past restored %d", got.Version, origSnap.Version)
	}
}

// TestCheckpointWarmSeed checks that a restore re-seeds the warm-start
// state from the persisted Resolve: the restarted engine's first
// re-solve must report itself warm-started.
func TestCheckpointWarmSeed(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 2}
	orig, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a re-solve to land before the engine stops, so the
	// checkpoint definitely carries one.
	runReplayResolve(t, sc, orig, 4, 1)
	cp := orig.Checkpoint()
	if cp.Snapshot == nil || cp.Snapshot.Resolve == nil {
		t.Fatal("checkpoint lost the re-solve")
	}

	restored, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	runReplayResolve(t, sc, restored, 8, 5)
	got, ok := restored.Latest()
	if !ok || got.Resolve == nil || got.ResolveInterval < 5 {
		t.Fatalf("no post-restore re-solve in the latest snapshot (%+v)", got.ResolveInterval)
	}
	if !got.ResolveWarm {
		t.Fatal("first re-solve after restore not warm-started from the checkpointed estimate")
	}
}

// TestRestoreValidation exercises every rejection path: wrong format,
// wrong dimensions, wrong method, mis-sized ring entries, and restoring
// into a running engine; and one acceptance: a checkpoint carrying a key
// this build no longer writes.
func TestRestoreValidation(t *testing.T) {
	eu, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	us, err := netsim.BuildAmerica(1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(eu.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, eu, orig, 4)
	cp := orig.Checkpoint()

	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		bad := cp
		bad.Format = 99
		if err := e.Restore(bad); err == nil {
			t.Fatal("unknown format accepted")
		}
	}
	if e, _ := New(us.Rt, Config{Window: 3}); true {
		if err := e.Restore(cp); err == nil {
			t.Fatal("checkpoint restored into a different scenario")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3, Method: MethodVardi}); true {
		if err := e.Restore(cp); err == nil {
			t.Fatal("checkpoint restored into a different method")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		bad := cp
		bad.Ring = append([]checkpointEntry(nil), cp.Ring...)
		bad.Ring[0] = checkpointEntry{Interval: bad.Ring[0].Interval, Demand: linalg.NewVector(3)}
		if err := e.Restore(bad); err == nil {
			t.Fatal("mis-sized ring entry accepted")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		// Checkpoints written before the write-only consumed counter was
		// dropped still carry its key; LoadCheckpoint ignores it.
		var m map[string]any
		b, _ := json.Marshal(cp)
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		m["consumed"] = 4
		b, _ = json.Marshal(m)
		path := filepath.Join(t.TempDir(), "old.ckpt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("checkpoint with a consumed key unreadable: %v", err)
		}
		if err := e.Restore(old); err != nil {
			t.Fatalf("checkpoint with a consumed key not restorable: %v", err)
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		ctx, cancel := context.WithCancel(context.Background())
		store := collector.NewStore(eu.Net.NumPairs())
		done := host(t, ctx, e, store)
		for !e.started.Load() {
			time.Sleep(time.Millisecond)
		}
		if err := e.Restore(cp); err == nil {
			t.Fatal("Restore accepted on a running engine")
		}
		cancel()
		<-done
	}
}

// TestRestoreShrinksWindow checks a restart with a smaller -window: the
// restored ring keeps the newest entries, and the next published mean
// is the one an engine that always ran the smaller window publishes.
func TestRestoreShrinksWindow(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(sc.Rt, Config{Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, orig, 8)
	cp := orig.Checkpoint()
	if len(cp.Ring) != 6 {
		t.Fatalf("checkpoint ring has %d entries, want 6", len(cp.Ring))
	}

	shrunk, err := New(sc.Rt, Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := shrunk.Restore(cp); err != nil {
		t.Fatal(err)
	}
	shrunk.stateMu.Lock()
	ring := shrunk.ring
	if len(ring) != 2 || ring[0].interval != 6 || ring[1].interval != 7 {
		t.Fatalf("shrunk ring holds intervals %+v, want [6 7]", ring)
	}
	shrunk.stateMu.Unlock()

	runReplay(t, sc, shrunk, 9)
	small, err := New(sc.Rt, Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, small, 9)
	got, _ := shrunk.Latest()
	want, _ := small.Latest()
	if got.Interval != 8 || got.Window != 2 || want.Interval != 8 {
		t.Fatalf("shrunk engine at interval %d window %d, want 8/2", got.Interval, got.Window)
	}
	for p := range want.Mean {
		if math.Float64bits(got.Mean[p]) != math.Float64bits(want.Mean[p]) {
			t.Fatalf("mean[%d] = %v after the shrinking restore, %v from a window-2 engine", p, got.Mean[p], want.Mean[p])
		}
	}
}

// TestRestoreCadenceAcrossConfigChange pins the config-migration rule
// for the adaptive cadence: a backed-off curEvery survives a restart
// only while the new config still enables the back-off, and is clamped
// into its range; a fixed-cadence restart snaps back to ResolveEvery.
func TestRestoreCadenceAcrossConfigChange(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	backoff := Config{Window: 3, ResolveEvery: 2, ResolveMaxEvery: 16, DriftThreshold: 0.5}
	orig, err := New(sc.Rt, backoff)
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, orig, 10) // steady enough to double the cadence at least once
	cp := orig.Checkpoint()
	if cp.CurEvery <= backoff.ResolveEvery {
		t.Fatalf("cadence never backed off (curEvery %d); test premise broken", cp.CurEvery)
	}

	curEveryAfter := func(cfg Config) int {
		e, err := New(sc.Rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(cp); err != nil {
			t.Fatal(err)
		}
		e.stateMu.Lock()
		defer e.stateMu.Unlock()
		return e.curEvery
	}
	// Fixed cadence restart: the backed-off value must not survive.
	if got := curEveryAfter(Config{Window: 3, ResolveEvery: 2}); got != 2 {
		t.Fatalf("fixed-cadence restart kept curEvery %d, want 2", got)
	}
	// Back-off still on but with a tighter cap: clamp down into range.
	if got := curEveryAfter(Config{Window: 3, ResolveEvery: 2, ResolveMaxEvery: 3, DriftThreshold: 0.5}); got != 3 {
		t.Fatalf("tighter back-off cap gave curEvery %d, want clamp to 3", got)
	}
	// Same config: the cadence carries over untouched.
	if got := curEveryAfter(backoff); got != cp.CurEvery {
		t.Fatalf("same-config restart changed curEvery %d -> %d", cp.CurEvery, got)
	}
}

// TestSaveCheckpointAtomic checks the crash-safety contract: a save over
// an existing checkpoint either fully replaces it or leaves it intact,
// and no temp litter survives a successful save.
func TestSaveCheckpointAtomic(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, eng, 4)

	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	if err := os.WriteFile(path, []byte("{ garbage from a previous crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after overwrite: %v", err)
	}
	if cp.Format != CheckpointFormat || len(cp.Ring) != 3 {
		t.Fatalf("reloaded checkpoint format %d ring %d, want %d/3", cp.Format, len(cp.Ring), CheckpointFormat)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left in checkpoint dir: %v", entries)
	}
	// A missing file surfaces as os.ErrNotExist for the fresh-start path.
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint returned %v, want not-exist", err)
	}
	// Corrupt JSON must fail loudly, not restore garbage.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("corrupt checkpoint parsed")
	}
}

// TestCheckpointDuringRun hammers Checkpoint while the engine consumes
// and re-solves: every captured checkpoint must be internally
// consistent (ring strictly increasing, cursor past the ring, restorable
// into a fresh engine).
func TestCheckpointDuringRun(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 2, ResolveMaxIter: 500}
	eng, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	replayDone := make(chan error, 1)
	go func() { replayDone <- collector.Replay(ctx, store, sc.Series, 30, 0) }()

	for i := 0; ; i++ {
		cp := eng.Checkpoint()
		for j := 1; j < len(cp.Ring); j++ {
			if cp.Ring[j].Interval <= cp.Ring[j-1].Interval {
				t.Fatalf("checkpoint %d: ring intervals not increasing: %d then %d", i, cp.Ring[j-1].Interval, cp.Ring[j].Interval)
			}
		}
		if n := len(cp.Ring); n > 0 && cp.Next != cp.Ring[n-1].Interval+1 {
			t.Fatalf("checkpoint %d: cursor %d vs newest ring interval %d", i, cp.Next, cp.Ring[n-1].Interval)
		}
		if len(cp.Ring) > 0 {
			probe, err := New(sc.Rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := probe.Restore(cp); err != nil {
				t.Fatalf("checkpoint %d not restorable: %v", i, err)
			}
		}
		select {
		case err := <-replayDone:
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			<-done
			return
		default:
		}
	}
}
