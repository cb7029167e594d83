package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/leakcheck"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/stream"
)

// member is one in-process cluster node: a real fleet behind a real
// serve handler on a real listener — everything but the process
// boundary.
type member struct {
	name string
	addr string
	f    *fleet.Fleet
	node *cluster.Node
	srv  *httptest.Server
	dir  string
	done chan error
}

// euSpec is the test tenant: a small endless replay that publishes
// every few tens of milliseconds.
var euSpec = fleet.TenantSpec{
	Name: "eu", Source: "europe", Cycles: -1, Pace: "20ms",
	Window: 3, ResolveEvery: 3,
}

// startMember boots one node: its fleet (owned tenants from the
// config), its cluster runtime (standby sync loops) and its HTTP
// server. A cleanup stops the member and waits its fleet out before
// the test's temp dirs vanish (the shutdown checkpoint save needs
// them). Each test registers its leak check as its first cleanup, so
// the check runs last, once every member and listener has stopped.
func startMember(t *testing.T, ctx context.Context, cfg cluster.Config, name string, srv *httptest.Server) *member {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(ctx)
	f := fleet.New(runner.NewPool(1), fleet.Options{
		CheckpointDir: dir, AllowEmpty: true, Logf: t.Logf,
	})
	for _, spec := range cfg.OwnedBy(name) {
		if _, err := f.Add(spec); err != nil {
			t.Fatal(err)
		}
	}
	node, err := cluster.NewNode(cfg, name, f, dir, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m := &member{
		name: name, addr: addrOf(srv),
		f: f, node: node, srv: srv, dir: dir, done: make(chan error, 1),
	}
	s := serve.New(ctx, f, serve.Options{Node: node})
	srv.Config.Handler = s.Handler()
	go func() { m.done <- f.Run(ctx) }()
	go node.Run(ctx)
	t.Cleanup(func() {
		cancel()
		<-m.done
	})
	return m
}

// newListeners allocates n unstarted servers so their addresses can go
// into the config before any handler exists.
func newListeners(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		out[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(out[i].Close)
	}
	return out
}

func addrOf(srv *httptest.Server) string {
	return srv.Listener.Addr().String()
}

// twoNodeConfig wires eu onto n1 with n2 as its standby.
func twoNodeConfig(srvs []*httptest.Server, standby bool) cluster.Config {
	return cluster.Config{
		Format:  cluster.ConfigFormat,
		Tenants: []fleet.TenantSpec{euSpec},
		Nodes: []cluster.NodeSpec{
			{Name: "n1", Addr: addrOf(srvs[0])},
			{Name: "n2", Addr: addrOf(srvs[1]), Standby: standby},
		},
		Placement:     map[string]string{"eu": "n1"},
		Standbys:      map[string]string{"eu": "n2"},
		ProbeEvery:    "30ms",
		ProbeFailures: 2,
		SyncEvery:     "30ms",
	}
}

// waitVersion blocks until the member's own tenant eu publishes
// version min.
func waitVersion(t *testing.T, ctx context.Context, m *member, min uint64) stream.Snapshot {
	t.Helper()
	ten, ok := m.f.Tenant("eu")
	if !ok {
		t.Fatalf("%s does not host eu", m.name)
	}
	snap, err := ten.WaitVersion(ctx, min)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func waitFor(t *testing.T, what string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPullCheckpoint: the handoff pull fetches a live owner's
// checkpoint and names the tenant and node when the owner is
// unreachable.
func TestPullCheckpoint(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvs := newListeners(t, 2)
	cfg := twoNodeConfig(srvs, true)
	m1 := startMember(t, ctx, cfg, "n1", srvs[0])
	m1.srv.Start()

	waitVersion(t, ctx, m1, 2)
	cp, err := cluster.PullCheckpoint(ctx, http.DefaultClient, m1.addr, "eu")
	if err != nil || cp.Snapshot == nil {
		t.Fatalf("pull: %v (snapshot %v)", err, cp.Snapshot != nil)
	}

	_, err = cluster.PullCheckpoint(ctx, http.DefaultClient, "127.0.0.1:1", "eu")
	if err == nil || !strings.Contains(err.Error(), "cluster: pull checkpoint for eu from 127.0.0.1:1") {
		t.Fatalf("pull from an unreachable owner: %v", err)
	}
}

// TestStandbySyncAndFailover is the tentpole's core loop in-process:
// the standby syncs the owner's checkpoint, the owner dies, the
// coordinator promotes the standby, and the tenant serves on from the
// synced state — warm, with its version history intact.
func TestStandbySyncAndFailover(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvs := newListeners(t, 2)
	cfg := twoNodeConfig(srvs, true)
	m1 := startMember(t, ctx, cfg, "n1", srvs[0])
	m2 := startMember(t, ctx, cfg, "n2", srvs[1])
	m1.srv.Start()
	m2.srv.Start()

	// Let the owner publish, then let the standby sync a checkpoint
	// that has a snapshot in it.
	waitVersion(t, ctx, m1, 3)
	standbyFile := filepath.Join(m2.dir, "eu.ckpt")
	var synced stream.Checkpoint
	waitFor(t, "standby checkpoint sync", 10*time.Second, func() bool {
		cp, err := stream.LoadCheckpoint(standbyFile)
		if err != nil || cp.Snapshot == nil {
			return false
		}
		synced = cp
		return true
	})

	co := cluster.NewCoordinator(cfg, nil, t.Logf)
	co.Registry().Sweep(ctx)
	if node, err := co.Route("eu"); err != nil || node.Name != "n1" {
		t.Fatalf("route before failover: %+v, %v", node, err)
	}
	if _, err := co.Route("nosuch"); err == nil {
		t.Fatal("routing an unknown tenant did not error")
	}

	// The front door proxies to the owner and names it.
	front := serve.NewCoordinator(co, nil)
	handler := front.Handler()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("proxied read: %d via %q", rec.Code, rec.Header().Get("X-Tenant-Node"))
	}

	// The healthz view is the coordinator's.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"coordinator":true`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// Kill the owner (listener down ~ network partition: the engine may
	// still run, nobody can reach it).
	m1.srv.Close()
	waitFor(t, "failover to n2", 10*time.Second, func() bool {
		co.Registry().Sweep(ctx)
		node, err := co.Route("eu")
		return err == nil && node.Name == "n2"
	})

	// The standby restored the synced checkpoint: same tenant, version
	// history continued, marked restored.
	ten, ok := m2.f.Tenant("eu")
	if !ok {
		t.Fatal("standby does not host eu after failover")
	}
	waitFor(t, "standby serving past synced version", 10*time.Second, func() bool {
		v, _, ok := ten.Position()
		return ok && v >= synced.Snapshot.Version
	})
	if st := ten.Status(); !st.Restored {
		t.Fatalf("adopted tenant not marked restored: %+v", st)
	}

	// Reads through the front door now land on n2.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tenant-Node") != "n2" {
		t.Fatalf("post-failover read: %d via %q", rec.Code, rec.Header().Get("X-Tenant-Node"))
	}

	// The aggregated listing annotates rows with their node and carries
	// the counters: proxied requests and n1's probe failures.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants", nil))
	var listing struct {
		Coordinator bool `json:"coordinator"`
		Nodes       []cluster.NodeReport
		Tenants     []struct {
			Name string `json:"name"`
			Node string `json:"node"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if !listing.Coordinator || len(listing.Tenants) != 1 || listing.Tenants[0].Node != "n2" {
		t.Fatalf("listing: %s", rec.Body.String())
	}
	var n1Report, n2Report cluster.NodeReport
	for _, n := range listing.Nodes {
		switch n.Name {
		case "n1":
			n1Report = n
		case "n2":
			n2Report = n
		}
	}
	if n1Report.Healthy || n1Report.ProbeFailures < 2 {
		t.Fatalf("n1 report: %+v", n1Report)
	}
	if !n2Report.Healthy || n2Report.Proxied < 1 || len(n2Report.Tenants) != 1 {
		t.Fatalf("n2 report: %+v", n2Report)
	}

	// Promotion retries are idempotent: adopting again is a 409 mapped
	// onto the sentinel.
	err := m2.node.Adopt(ctx, "eu", nil)
	if !errors.Is(err, fleet.ErrAlreadyHosted) {
		t.Fatalf("re-adopt: %v", err)
	}
	if err := m2.node.Adopt(ctx, "nosuch", nil); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("adopt unknown: %v", err)
	}
}

// TestCoordinatorMigrate moves a tenant between two healthy nodes by
// checkpoint handoff and verifies the target serves it warm.
func TestCoordinatorMigrate(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvs := newListeners(t, 2)
	cfg := twoNodeConfig(srvs, false) // n2 is a primary with no tenants
	m1 := startMember(t, ctx, cfg, "n1", srvs[0])
	m2 := startMember(t, ctx, cfg, "n2", srvs[1])
	m1.srv.Start()
	m2.srv.Start()

	pre := waitVersion(t, ctx, m1, 3)

	co := cluster.NewCoordinator(cfg, nil, t.Logf)
	co.Registry().Sweep(ctx)

	front := serve.NewCoordinator(co, nil)
	handler := front.Handler()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=eu&to=n2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("migrate: %d %s", rec.Code, rec.Body.String())
	}
	if node, err := co.Route("eu"); err != nil || node.Name != "n2" {
		t.Fatalf("route after migrate: %+v, %v", node, err)
	}
	ten, ok := m2.f.Tenant("eu")
	if !ok {
		t.Fatal("target does not host eu after migrate")
	}
	// Warm handoff: the shipped checkpoint carried the version history,
	// so the target continues numbering instead of starting over.
	waitFor(t, "target serving past handoff version", 10*time.Second, func() bool {
		v, _, ok := ten.Position()
		return ok && v >= pre.Version
	})
	if st := ten.Status(); !st.Restored {
		t.Fatalf("migrated tenant not marked restored: %+v", st)
	}

	// Migrating onto the current owner is the 409 family.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=eu&to=n2", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("migrate onto owner: %d %s", rec.Code, rec.Body.String())
	}
	// Unknown tenant and malformed queries keep the envelope.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=ghost&to=n2", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("migrate unknown tenant: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=eu", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("migrate without target: %d", rec.Code)
	}
}

// TestNodeAdoptColdWithoutCheckpoint: adopting a tenant nobody ever
// checkpointed starts it cold — still a successful adoption.
func TestNodeAdoptColdWithoutCheckpoint(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvs := newListeners(t, 2)
	cfg := twoNodeConfig(srvs, true)
	m2 := startMember(t, ctx, cfg, "n2", srvs[1])
	m2.srv.Start()

	if err := m2.node.Adopt(ctx, "eu", nil); err != nil {
		t.Fatalf("cold adopt: %v", err)
	}
	ten, ok := m2.f.Tenant("eu")
	if !ok {
		t.Fatal("tenant not hosted after cold adopt")
	}
	waitFor(t, "cold-adopted tenant publishing", 10*time.Second, func() bool {
		_, _, ok := ten.Position()
		return ok
	})
	if st := ten.Status(); st.Restored {
		t.Fatalf("cold adopt claims restored state: %+v", st)
	}
	// A corrupt standby file fails the adopt loudly instead of starting
	// a silently-cold engine.
	if err := os.WriteFile(filepath.Join(m2.dir, "us.ckpt"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Tenants = append([]fleet.TenantSpec{}, cfg.Tenants...)
	cfg2.Tenants = append(cfg2.Tenants, fleet.TenantSpec{Name: "us", Source: "america", Cycles: -1, Pace: "20ms"})
	node2, err := cluster.NewNode(cfg2, "n2", m2.f, m2.dir, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := node2.Adopt(ctx, "us", nil); err == nil {
		t.Fatal("corrupt standby checkpoint adopted silently")
	}
}
