package stream

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
)

// TestDispatchModeParksResolves pins the contract every host builds on:
// the engine never solves on its own — scheduled windows park until the
// host calls TryResolve — and Config.ResolveDispatch fires once per
// parked window.
func TestDispatchModeParksResolves(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, every = 6, 2
	var dispatched atomic.Int64
	eng, err := New(sc.Rt, Config{
		Window:       3,
		ResolveEvery: every,
		ResolveDispatch: func() {
			dispatched.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, eng, cycles, cycles)

	if got, want := dispatched.Load(), int64(cycles/every); got != want {
		t.Fatalf("dispatch hook fired %d times, want %d (one per scheduled window)", got, want)
	}
	snap, ok := eng.Latest()
	if !ok {
		t.Fatal("no snapshot after replay")
	}
	if snap.Resolve != nil {
		t.Fatal("engine solved on its own")
	}
	if !eng.ResolvePending() {
		t.Fatal("no parked re-solve after scheduled windows")
	}

	// The host (here: the test) executes the parked solve inline.
	ctx := context.Background()
	if !eng.TryResolve(ctx) {
		t.Fatal("TryResolve consumed nothing with work parked")
	}
	if eng.TryResolve(ctx) {
		t.Fatal("TryResolve consumed a second solve; only one window was parked (latest wins)")
	}
	snap, _ = eng.Latest()
	if snap.Resolve == nil {
		t.Fatal("TryResolve did not publish the re-solve")
	}
	// Latest wins: the parked window is the newest scheduled one.
	if snap.ResolveInterval != cycles-1 {
		t.Fatalf("parked re-solve covered interval %d, want %d (latest wins)", snap.ResolveInterval, cycles-1)
	}
	if snap.ResolveMRE < 0 || math.IsNaN(snap.ResolveMRE) {
		t.Fatalf("implausible resolve MRE %v", snap.ResolveMRE)
	}
}

// TestTryResolveAfterCancel pins the shutdown drain: once ctx is done,
// TryResolve still takes the parked work and reports it consumed, but
// solves and publishes nothing.
func TestTryResolveAfterCancel(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 2, ResolveEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		eng.consume(k, sc.Series.Demands[k].Clone(), sc.Net.NumPairs())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !eng.TryResolve(ctx) {
		t.Fatal("TryResolve after cancellation did not consume the parked work")
	}
	if eng.ResolvePending() {
		t.Fatal("parked work survived the drain")
	}
	if snap, _ := eng.Latest(); snap.Resolve != nil || snap.Version != 2 {
		t.Fatalf("drain published (version %d, resolve %v)", snap.Version, snap.Resolve != nil)
	}
}
