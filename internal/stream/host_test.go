package stream

import (
	"context"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/leakcheck"
)

// host drives eng the way internal/fleet does for one tenant, through
// the engine's public surface only: one goroutine runs Run over store,
// and a second runs each parked re-solve with TryResolve as soon as
// ResolvePending reports it (these engines leave Config.ResolveDispatch
// nil, so the loop polls), one at a time. The returned channel yields
// Run's result once both goroutines have exited; cancel ctx (or stop the
// store) to get there. The test fails if a goroutine host started
// outlives it.
func host(t *testing.T, ctx context.Context, eng *Engine, store *collector.Store) <-chan error {
	t.Helper()
	t.Cleanup(leakcheck.Check(t))
	ran := make(chan error, 1)
	go func() { ran <- eng.Run(ctx, store) }()
	done := make(chan error, 1)
	go func() {
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case err := <-ran:
				done <- err
				return
			case <-tick.C:
				if eng.ResolvePending() {
					eng.TryResolve(ctx)
				}
			}
		}
	}()
	return done
}

// waitParked blocks until eng holds a parked re-solve. An interval's
// publication precedes its park, so a test that has seen the
// publication of a scheduling interval must still wait for the park
// before TryResolve can take it.
func waitParked(t *testing.T, ctx context.Context, eng *Engine) {
	t.Helper()
	for !eng.ResolvePending() {
		if ctx.Err() != nil {
			t.Fatalf("no re-solve parked: %v", ctx.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
