package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// NodeStatus is one row of the registry's health view, surfaced on the
// coordinator's /v1/tenants payload.
type NodeStatus struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Standby bool   `json:"standby,omitempty"`
	Healthy bool   `json:"healthy"`
	// ProbeFailures counts every failed probe since boot (not just the
	// current streak) — the observability counter, monotone so deltas
	// graph cleanly.
	ProbeFailures uint64 `json:"probe_failures"`
}

// minProbeTimeout is the least time a probe waits for /healthz to
// answer. A node that is gone refuses the connection and fails its
// probe at once, whatever the cadence; a node that answers late because
// it is busy (solving on a saturated CPU) is alive, and a sub-second
// probe cadence must not fail it over to its standby.
const minProbeTimeout = time.Second

// nodeState is the registry's book-keeping for one node.
type nodeState struct {
	healthy     bool
	consecutive int    // current failure streak
	failures    uint64 // failures since boot
}

// Registry probes every node's /healthz and keeps the cluster's
// liveness view. A node goes down after probe_failures consecutive
// misses (one blip does not trigger a migration) and comes back on the
// first success. Nodes start optimistically healthy so a coordinator
// booting alongside its nodes does not promote standbys before anyone
// has had a chance to answer.
type Registry struct {
	nodes     []NodeSpec
	every     time.Duration
	threshold int
	client    *http.Client
	logf      func(format string, args ...any)
	// onSweep runs after each full probe sweep — the coordinator hangs
	// its reconcile (promote tenants off dead owners) here, so failure
	// detection and failover share one clock.
	onSweep func(ctx context.Context)

	mu     sync.Mutex
	states map[string]*nodeState
}

// NewRegistry builds a registry over the config's node set. client may
// be nil for http.DefaultClient; logf may be nil to discard.
func NewRegistry(cfg Config, client *http.Client, logf func(string, ...any)) *Registry {
	if client == nil {
		client = http.DefaultClient
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Registry{
		nodes:     cfg.Nodes,
		every:     cfg.probeEvery(),
		threshold: cfg.probeFailures(),
		client:    client,
		logf:      logf,
		states:    make(map[string]*nodeState, len(cfg.Nodes)),
	}
	for _, n := range cfg.Nodes {
		r.states[n.Name] = &nodeState{healthy: true}
	}
	return r
}

// OnSweep registers the post-sweep hook; call before Run.
func (r *Registry) OnSweep(fn func(ctx context.Context)) { r.onSweep = fn }

// Run probes until ctx is done: one sweep immediately, then one per
// probe interval.
func (r *Registry) Run(ctx context.Context) {
	r.Sweep(ctx)
	tick := time.NewTicker(r.every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			r.Sweep(ctx)
		}
	}
}

// Sweep probes every node once (concurrently) and then runs the
// registered hook. Exported so tests and the coordinator can force a
// sweep without waiting out the ticker.
func (r *Registry) Sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n NodeSpec) {
			defer wg.Done()
			r.record(n.Name, r.probe(ctx, n))
		}(n)
	}
	wg.Wait()
	if r.onSweep != nil {
		r.onSweep(ctx)
	}
}

// probe is one GET /healthz with a bounded wait: a node that cannot
// answer within the probe interval (and at least minProbeTimeout) is as
// good as down.
func (r *Registry) probe(ctx context.Context, n NodeSpec) bool {
	ctx, cancel := context.WithTimeout(ctx, max(r.every, minProbeTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.Addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (r *Registry) record(name string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.states[name]
	if ok {
		if !st.healthy {
			r.logf("cluster: node %s is back", name)
		}
		st.healthy = true
		st.consecutive = 0
		return
	}
	st.consecutive++
	st.failures++
	if st.healthy && st.consecutive >= r.threshold {
		st.healthy = false
		r.logf("cluster: node %s is down (%d consecutive probe failures)", name, st.consecutive)
	}
}

// Healthy reports a node's current liveness; unknown nodes are down.
func (r *Registry) Healthy(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[name]
	return ok && st.healthy
}

// Status returns every node's health row, in config order.
func (r *Registry) Status() []NodeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStatus, 0, len(r.nodes))
	for _, n := range r.nodes {
		st := r.states[n.Name]
		out = append(out, NodeStatus{
			Name: n.Name, Addr: n.Addr, Standby: n.Standby,
			Healthy: st.healthy, ProbeFailures: st.failures,
		})
	}
	return out
}
