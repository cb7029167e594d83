package fleet

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/stream"
)

// TestHandleDelegation: the lifecycle interface view of a tenant is
// the tenant — same snapshots, same metrics, same checkpoint.
func TestHandleDelegation(t *testing.T) {
	f := New(runner.NewPool(1), Options{})
	if _, err := f.Add(TenantSpec{Name: "eu", Source: "europe", Cycles: 3, Pace: "0", Window: 3, ResolveEvery: -1}); err != nil {
		t.Fatal(err)
	}
	hs := f.Handles()
	if len(hs) != 1 || hs[0].Name() != "eu" || hs[0].Spec().Source != "europe" {
		t.Fatalf("Handles: %v", hs)
	}
	h, ok := f.Handle("eu")
	if !ok {
		t.Fatal("Handle(eu) missing")
	}
	if _, ok := f.Handle("ghost"); ok {
		t.Fatal("Handle(ghost) exists")
	}
	if _, ok := h.Latest(); ok {
		t.Fatal("snapshot before Run")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	wctx, wcancel := context.WithTimeout(ctx, time.Minute)
	defer wcancel()
	snap, err := h.WaitVersion(wctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Latest(); !ok || got.Version < snap.Version {
		t.Fatalf("Latest after WaitVersion: ok=%v v%d", ok, got.Version)
	}
	if v, _, ok := h.Position(); !ok || v < snap.Version {
		t.Fatalf("Position: ok=%v v%d", ok, v)
	}
	if len(h.Metrics()) == 0 {
		t.Fatal("no metric points after three intervals")
	}
	cp, err := h.Checkpoint()
	if err != nil || cp.Snapshot == nil {
		t.Fatalf("Checkpoint: %v (snapshot %v)", err, cp.Snapshot != nil)
	}
	ten, _ := f.Tenant("eu")
	if st := ten.Status(); st.Name != "eu" || !st.HaveSnapshot {
		t.Fatalf("Status: %+v", st)
	}
	cancel()
	<-done
}

// TestAdoptLifecycle: Adopt before Run queues the tenant, Adopt on a
// running fleet starts it immediately (warm when a checkpoint is
// shipped), Adopt after shutdown refuses.
func TestAdoptLifecycle(t *testing.T) {
	dir := t.TempDir()
	spec := TenantSpec{Name: "eu", Source: "europe", Cycles: -1, Pace: "5ms", Window: 3, ResolveEvery: -1}

	// Seed a checkpoint to ship: run a twin briefly and save its state.
	seed := New(runner.NewPool(1), Options{CheckpointDir: dir})
	seedTen, err := seed.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	seedDone := make(chan error, 1)
	go func() { seedDone <- seed.Run(sctx) }()
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	snap, err := seedTen.WaitVersion(wctx, 3)
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	scancel()
	<-seedDone // shutdown saved <dir>/eu.ckpt
	shipped, err := stream.LoadCheckpoint(filepath.Join(dir, "eu.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	// Adopt before Run: the tenant is queued and started by Run.
	f := New(runner.NewPool(1), Options{CheckpointDir: t.TempDir(), AllowEmpty: true})
	if _, err := f.Adopt(spec, &shipped); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	ten, _ := f.Tenant("eu")
	deadline := time.Now().Add(time.Minute)
	for {
		if v, _, ok := ten.Position(); ok && v >= snap.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted-before-Run tenant never passed the shipped version %d", snap.Version)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := ten.Status(); !st.Restored {
		t.Fatalf("shipped checkpoint not restored: %+v", st)
	}

	// Adopt on the running fleet: a second tenant joins live, cold.
	us := TenantSpec{Name: "us", Source: "america", Cycles: -1, Pace: "5ms", Window: 3, ResolveEvery: -1}
	adopted, err := f.Adopt(us, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, ok := adopted.Position(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live-adopted tenant never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Duplicate adoption is the sentinel, not a second engine.
	if _, err := f.Adopt(us, nil); !errors.Is(err, ErrAlreadyHosted) {
		t.Fatalf("duplicate adopt: %v", err)
	}
	// A checkpoint that cannot restore rolls the adoption back.
	bad := shipped
	bad.NumPairs++
	if _, err := f.Adopt(TenantSpec{Name: "broken", Source: "europe", Cycles: -1, Pace: "5ms"}, &bad); err == nil {
		t.Fatal("mismatched checkpoint adopted")
	}
	if _, hosted := f.Tenant("broken"); hosted {
		t.Fatal("failed adoption left the tenant behind")
	}

	cancel()
	<-done
	if _, err := f.Adopt(TenantSpec{Name: "late", Source: "europe"}, nil); err == nil {
		t.Fatal("Adopt on a stopped fleet accepted")
	}
}
