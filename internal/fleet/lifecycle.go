package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stream"
)

// Lifecycle sentinels, shared by whatever hosts handles (the serving
// layer's adopt endpoint, the cluster runtime): callers classify with
// errors.Is and map them onto their own surface.
var (
	// ErrUnknownTenant: the named tenant is not declared anywhere the
	// callee can see (fleet, cluster config).
	ErrUnknownTenant = errors.New("unknown tenant")
	// ErrAlreadyHosted: an adoption was asked of a node that already
	// runs the tenant — idempotent success for a promotion retry.
	ErrAlreadyHosted = errors.New("tenant already hosted here")
)

// Handle is the read and checkpoint surface the serving layer reaches
// a tenant through: identity, snapshot serving (Latest, WaitVersion,
// Metrics, Position) and Checkpoint, the handoff document the cluster
// ships between nodes. *Tenant is the one implementation; tests and
// the benchmark wrap it to observe or fake reads. The rest of the
// lifecycle (Status, Restore, the run and persist loops) stays on
// *Tenant and its fleet.
type Handle interface {
	// Name returns the tenant's unique name.
	Name() string
	// Spec returns the spec the tenant was declared with.
	Spec() TenantSpec
	// Latest returns the most recent published snapshot, if any.
	Latest() (stream.Snapshot, bool)
	// WaitVersion blocks until a snapshot with Version >= min is
	// published, ctx is done, or the tenant stops.
	WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error)
	// Metrics returns the estimation-error history.
	Metrics() []stream.MetricPoint
	// Position reports the latest snapshot's version and interval.
	Position() (version uint64, interval int, ok bool)
	// Checkpoint captures the tenant's current engine state — the
	// migration handoff document.
	Checkpoint() (stream.Checkpoint, error)
}

// Compile-time proof that *Tenant is a Handle.
var _ Handle = (*Tenant)(nil)

// Latest returns the tenant's most recent published snapshot.
func (t *Tenant) Latest() (stream.Snapshot, bool) { return t.eng.Latest() }

// WaitVersion blocks until the tenant publishes version >= min.
func (t *Tenant) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	return t.eng.WaitVersion(ctx, min)
}

// Metrics returns the tenant's estimation-error history.
func (t *Tenant) Metrics() []stream.MetricPoint { return t.eng.Metrics() }

// Position reports the latest snapshot's version and interval.
func (t *Tenant) Position() (uint64, int, bool) { return t.eng.Position() }

// Checkpoint captures the tenant's current engine state. Safe while
// the tenant runs; never fails (the error keeps the Handle method
// open to wrappers that can).
func (t *Tenant) Checkpoint() (stream.Checkpoint, error) { return t.eng.Checkpoint(), nil }

// Restore installs a checkpoint on the tenant's engine. A script
// tenant is first moved onto the checkpoint's topology epoch by
// replaying its timeline's routing swaps (each applies immediately at
// interval 0), and the remaining scripted swaps are armed before the
// checkpoint moves the cursor: a swap scheduled at the restored cursor
// then waits for that interval, as it did in the engine that wrote the
// checkpoint, instead of applying at once. Used by Fleet.RestoreAll at
// boot and by Fleet.Adopt when a shipped checkpoint arrives from a
// previous owner.
func (t *Tenant) Restore(cp stream.Checkpoint) error {
	if t.tl != nil {
		for ep := t.eng.TopologyEpoch() + 1; ep <= cp.TopologyEpoch; ep++ {
			rt, ok := t.tl.EpochRouting(ep)
			if !ok {
				return fmt.Errorf("checkpoint is at topology epoch %d, the script only has %d",
					cp.TopologyEpoch, len(t.tl.Epochs))
			}
			if err := t.eng.SwapRouting(rt, ep, 0); err != nil {
				return fmt.Errorf("moving onto checkpointed epoch %d: %w", ep, err)
			}
		}
	}
	if err := t.armSwaps(); err != nil {
		return err
	}
	if err := t.eng.Restore(cp); err != nil {
		return err
	}
	t.mu.Lock()
	t.restored = true
	t.mu.Unlock()
	return nil
}

// Handles returns every tenant as a lifecycle handle, in declaration
// order — the view the serving layer reads through.
func (f *Fleet) Handles() []Handle {
	tenants := f.Tenants()
	out := make([]Handle, len(tenants))
	for i, t := range tenants {
		out[i] = t
	}
	return out
}

// Handle looks a tenant's lifecycle handle up by name.
func (f *Fleet) Handle(name string) (Handle, bool) {
	t, ok := f.Tenant(name)
	if !ok {
		return nil, false
	}
	return t, true
}
