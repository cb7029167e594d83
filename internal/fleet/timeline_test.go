package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/runner"
	"repro/internal/stream"
)

// scriptFile writes a failure+restore timeline script and returns its
// path: 18 intervals over the default base, one adjacency failing at
// interval 5 and coming back at interval 14.
func scriptFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "failover.json")
	script := `{"format":1,"intervals":18,"events":[
		{"at":5,"fail_link":"Frankfurt-cr1-Brussels-cr1"},
		{"at":14,"restore":"Frankfurt-cr1-Brussels-cr1"}]}`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScriptTenantCheckpointAcrossSwap is the timeline e2e: a
// scenario:script tenant runs a scripted failure mid-stream, is killed
// after the topology swap with a checkpoint on disk, and a fresh fleet
// restores it onto the post-swap topology — warm iterate intact — and
// finishes the timeline through the scripted restoration.
func TestScriptTenantCheckpointAcrossSwap(t *testing.T) {
	spec := TenantSpec{
		Name: "script-eu", Source: "scenario:script:" + scriptFile(t),
		Cycles: 1, Pace: "20ms", Window: 3, ResolveEvery: 3,
		Method: "entropy", ResolveMaxIter: 2000, ResolveTol: 1e-5,
	}
	ckptDir := t.TempDir()

	f := New(runner.NewPool(0), Options{CheckpointDir: ckptDir})
	ten, err := f.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	tl := ten.tl
	if tl == nil || len(tl.Epochs) != 3 {
		t.Fatalf("script tenant compiled %v epochs, want 3", tl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	// Kill mid-timeline: as soon as a re-solve published on the failed
	// topology (epoch 1), stop the fleet. Run's exit writes the
	// checkpoint.
	deadline := time.Now().Add(time.Minute)
	waitTenant(t, ten, "post-swap re-solve", deadline, func(s stream.Snapshot) bool {
		return s.TopologyEpoch >= 1 && s.Resolve != nil && s.ResolveInterval >= 5
	})
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v", err)
	}

	cp, err := stream.LoadCheckpoint(filepath.Join(ckptDir, "script-eu.ckpt"))
	if err != nil {
		t.Fatalf("checkpoint not on disk: %v", err)
	}
	if cp.TopologyEpoch < 1 {
		t.Fatalf("checkpoint carries epoch %d, want the post-swap epoch", cp.TopologyEpoch)
	}

	// Fresh fleet, same spec and checkpoint dir: RestoreAll must replay
	// the script's swaps up to the checkpoint epoch before restoring.
	f2 := New(runner.NewPool(0), Options{CheckpointDir: ckptDir})
	ten2, err := f2.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := f2.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d tenants, want 1", restored)
	}
	if got := ten2.Engine().TopologyEpoch(); got != cp.TopologyEpoch {
		t.Fatalf("restored engine on epoch %d, checkpoint says %d", got, cp.TopologyEpoch)
	}
	st := ten2.Status()
	if !st.Restored || st.TopologyEpoch != cp.TopologyEpoch {
		t.Fatalf("status %+v does not report the restored epoch", st)
	}
	snap, have := ten2.Engine().Latest()
	if !have || snap.Resolve == nil {
		t.Fatal("restored tenant serves no re-solved snapshot")
	}

	// Resume: the replay feed re-runs the timeline from interval 0; the
	// engine ignores everything at or below its restored cursor and
	// continues through the scripted restoration to the end.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- f2.Run(ctx2) }()
	final := waitTenant(t, ten2, "post-restore completion", time.Now().Add(time.Minute), func(s stream.Snapshot) bool {
		return s.Interval == 17 && s.Resolve != nil && s.ResolveInterval == 17
	})
	if final.TopologyEpoch != 2 {
		t.Fatalf("finished on epoch %d, want 2 (restored topology)", final.TopologyEpoch)
	}
	if !final.ResolveWarm {
		t.Fatal("final re-solve was cold; the restored warm iterate was lost")
	}
	cancel2()
	if err := <-done2; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("resumed Run: %v", err)
	}
}

// TestScriptRestoreAtSwapBoundary pins the epoch a script tenant
// restores onto when its checkpoint's cursor sits exactly on a scripted
// swap: the engine consumed intervals 0..13 on the failed topology
// (epoch 1), and the restoration is scripted for interval 14. The
// restored engine must report the checkpoint's epoch, as the killed one
// did, and apply the restoration swap only when it consumes interval 14
// — the same interval an uninterrupted run applies it at.
func TestScriptRestoreAtSwapBoundary(t *testing.T) {
	spec := TenantSpec{
		Name: "script-eu", Source: "scenario:script:" + scriptFile(t),
		Cycles: 1, Pace: "0", Window: 3, ResolveEvery: 3,
		Method: "entropy", ResolveMaxIter: 2000, ResolveTol: 1e-5,
	}
	const boundary = 14 // the scripted restore interval

	// The killed process: intervals 0..13 consumed, swaps armed.
	f := New(runner.NewPool(1), Options{})
	ten, err := f.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.armSwaps(); err != nil {
		t.Fatal(err)
	}
	tl := ten.tl
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := collector.NewStore(ten.Scenario().Net.NumPairs())
	done := make(chan error, 1)
	go func() { done <- ten.Engine().Run(ctx, store) }()
	feed := func(from, to int) {
		for iv := from; iv < to; iv++ {
			for p, mbps := range tl.Steps[iv].Demand {
				store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: mbps, Poller: "boundary-test"})
			}
		}
		waitTenant(t, ten, "feed", time.Now().Add(time.Minute), func(s stream.Snapshot) bool {
			return s.Interval == to-1
		})
	}
	feed(0, boundary)
	cp := ten.Engine().Checkpoint()
	if cp.Next != boundary || cp.TopologyEpoch != 1 {
		t.Fatalf("checkpoint at cursor %d epoch %d, want %d and 1", cp.Next, cp.TopologyEpoch, boundary)
	}

	f2 := New(runner.NewPool(1), Options{})
	ten2, err := f2.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ten2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := ten2.Engine().TopologyEpoch(); got != cp.TopologyEpoch {
		t.Fatalf("restored engine on epoch %d, checkpoint says %d", got, cp.TopologyEpoch)
	}

	// Consuming the boundary interval applies the restoration swap, in
	// the killed engine and the restored one alike.
	feed(boundary, boundary+1)
	if got := ten.Engine().TopologyEpoch(); got != 2 {
		t.Fatalf("uninterrupted engine on epoch %d after interval %d, want 2", got, boundary)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	store2 := collector.NewStore(ten2.Scenario().Net.NumPairs())
	done2 := make(chan error, 1)
	go func() { done2 <- ten2.Engine().Run(ctx2, store2) }()
	for p, mbps := range tl.Steps[boundary].Demand {
		store2.Ingest(collector.RateRecord{LSP: p, Interval: boundary, RateMbps: mbps, Poller: "boundary-test"})
	}
	waitTenant(t, ten2, "the boundary interval", time.Now().Add(time.Minute), func(s stream.Snapshot) bool {
		return s.Interval == boundary
	})
	if got := ten2.Engine().TopologyEpoch(); got != 2 {
		t.Fatalf("restored engine on epoch %d after interval %d, want 2", got, boundary)
	}
	cancel2()
	if err := <-done2; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("restored Run: %v", err)
	}
}
