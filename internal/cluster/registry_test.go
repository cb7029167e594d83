package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// flakyNode is a /healthz endpoint whose answer a test flips.
type flakyNode struct {
	srv *httptest.Server
	ok  atomic.Bool
}

func newFlakyNode(t *testing.T) *flakyNode {
	t.Helper()
	n := &flakyNode{}
	n.ok.Store(true)
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !n.ok.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *flakyNode) addr() string { return strings.TrimPrefix(n.srv.URL, "http://") }

func TestRegistryThresholdAndRecovery(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	a, b := newFlakyNode(t), newFlakyNode(t)
	cfg := Config{
		Format:  ConfigFormat,
		Nodes:   []NodeSpec{{Name: "a", Addr: a.addr()}, {Name: "b", Addr: b.addr()}},
		Tenants: nil, // registry does not read tenants
	}
	cfg.ProbeFailures = 2
	sweeps := 0
	reg := NewRegistry(cfg, nil, t.Logf)
	reg.OnSweep(func(context.Context) { sweeps++ })
	ctx := context.Background()

	reg.Sweep(ctx)
	if !reg.Healthy("a") || !reg.Healthy("b") {
		t.Fatal("healthy nodes probed down")
	}
	if reg.Healthy("ghost") {
		t.Fatal("unknown node reported healthy")
	}

	// One miss is a blip, not an outage; the second crosses the threshold.
	b.ok.Store(false)
	reg.Sweep(ctx)
	if !reg.Healthy("b") {
		t.Fatal("one probe failure marked the node down (threshold is 2)")
	}
	reg.Sweep(ctx)
	if reg.Healthy("b") {
		t.Fatal("two consecutive failures did not mark the node down")
	}

	// Recovery is immediate on the first good probe.
	b.ok.Store(true)
	reg.Sweep(ctx)
	if !reg.Healthy("b") {
		t.Fatal("node did not recover on a good probe")
	}

	// The failure counter is monotone: the two misses stay counted.
	var bStatus NodeStatus
	for _, st := range reg.Status() {
		if st.Name == "b" {
			bStatus = st
		}
	}
	if bStatus.ProbeFailures != 2 || !bStatus.Healthy {
		t.Fatalf("status row %+v, want 2 lifetime failures and healthy", bStatus)
	}
	if sweeps != 4 {
		t.Fatalf("onSweep ran %d times, want 4", sweeps)
	}
}

// TestRegistrySlowNodeStaysHealthy: a node that answers its probes
// late — busy, not gone — stays up under a cadence far shorter than its
// answer time, while a node refusing connections still goes down.
func TestRegistrySlowNodeStaysHealthy(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(slow.Close)
	gone := httptest.NewServer(http.NotFoundHandler())
	goneAddr := strings.TrimPrefix(gone.URL, "http://")
	gone.Close()
	cfg := Config{
		Format: ConfigFormat,
		Nodes: []NodeSpec{
			{Name: "slow", Addr: strings.TrimPrefix(slow.URL, "http://")},
			{Name: "gone", Addr: goneAddr},
		},
		ProbeEvery:    "20ms",
		ProbeFailures: 2,
	}
	reg := NewRegistry(cfg, nil, t.Logf)
	for i := 0; i < 3; i++ {
		reg.Sweep(context.Background())
	}
	if !reg.Healthy("slow") {
		t.Fatal("a node answering in 150ms was marked down by a 20ms probe cadence")
	}
	if reg.Healthy("gone") {
		t.Fatal("a node refusing connections stayed up")
	}
}
