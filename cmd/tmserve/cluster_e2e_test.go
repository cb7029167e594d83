package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/stream"
)

// freeAddrs reserves n distinct loopback addresses for cluster nodes:
// the config must name the ports before the processes bind them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startClusterProc boots one tmserve role (node or coordinator) through
// the real run() and returns its base URL plus an idempotent stop —
// callable mid-test to kill a node, and again harmlessly from Cleanup.
func startClusterProc(t *testing.T, cfg config) (base string, stop func()) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	cfg.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, io.Discard) }()
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("process exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("process did not come up")
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("shutdown: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("process did not shut down within 10s")
			}
		})
	}
	t.Cleanup(stop)
	return base, stop
}

// clusterGet fetches a URL, decoding the body into `into` only on 200
// (failover windows legitimately answer 502/503 envelopes).
func clusterGet(t *testing.T, url string, into any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: decode: %v (%s)", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestEndToEndClusterHandoff is the cross-process mirror of the fleet
// package's checkpoint-across-swap test: a scripted-timeline tenant
// runs on node n1 behind a coordinator, n1 is killed after the scripted
// topology swap, and the standby n2 must take over from its synced
// checkpoint — serving the tenant with the post-swap topology epoch
// preserved and the next re-solve warm-started, in measurably fewer
// solver iterations than the same checkpoint restored cold.
func TestEndToEndClusterHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster handoff takes seconds; skipped with -short")
	}
	// 60 intervals keep re-solves flowing long after the handoff; the
	// link fails at 5 and is restored at 14, as in the fleet-layer test.
	script := filepath.Join(t.TempDir(), "failover.json")
	if err := os.WriteFile(script, []byte(`{"format":1,"intervals":60,"events":[
		{"at":5,"fail_link":"Frankfurt-cr1-Brussels-cr1"},
		{"at":14,"restore":"Frankfurt-cr1-Brussels-cr1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := fleet.TenantSpec{
		Name: "tl", Source: "scenario:script:" + script,
		Cycles: 1, Pace: "20ms", Window: 3, ResolveEvery: 3,
		Method: "entropy", ResolveMaxIter: 2000, ResolveTol: 1e-5,
	}
	addrs := freeAddrs(t, 2)
	dir1, dir2 := t.TempDir(), t.TempDir()
	cc := cluster.Config{
		Format:  cluster.ConfigFormat,
		Tenants: []fleet.TenantSpec{spec},
		Nodes: []cluster.NodeSpec{
			{Name: "n1", Addr: addrs[0]},
			{Name: "n2", Addr: addrs[1], Standby: true},
		},
		Placement:  map[string]string{"tl": "n1"},
		Standbys:   map[string]string{"tl": "n2"},
		ProbeEvery: "50ms", ProbeFailures: 2, SyncEvery: "50ms",
	}
	data, err := json.Marshal(cc)
	if err != nil {
		t.Fatal(err)
	}
	clusterPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(clusterPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stopN2 := startClusterProc(t, config{addr: addrs[1], clusterPath: clusterPath, nodeName: "n2", checkpointDir: dir2})
	defer stopN2()
	_, stopN1 := startClusterProc(t, config{addr: addrs[0], clusterPath: clusterPath, nodeName: "n1", checkpointDir: dir1})
	coordBase, stopCoord := startClusterProc(t, config{addr: "127.0.0.1:0", clusterPath: clusterPath, coordinator: true})
	defer stopCoord()
	snapURL := coordBase + "/v1/t/tl/snapshot"

	// Phase 1: through the coordinator, wait for a re-solve published on
	// the post-swap topology (epoch >= 1), served by n1.
	deadline := time.Now().Add(time.Minute)
	var snap stream.Snapshot
	for {
		code, hdr := clusterGet(t, snapURL, &snap)
		if code == http.StatusOK && snap.TopologyEpoch >= 1 && snap.Resolve != nil && snap.ResolveInterval >= 5 {
			if node := hdr.Get("X-Tenant-Node"); node != "n1" {
				t.Fatalf("pre-handoff reads served by %q, want n1", node)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-swap re-solve never published: code %d, epoch %d, resolve@%d",
				code, snap.TopologyEpoch, snap.ResolveInterval)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: wait for n2's standby sync to capture a post-swap
	// checkpoint, then kill n1. The captured file doubles as the cold
	// control's starting state.
	standbyPath := filepath.Join(dir2, "tl.ckpt")
	var cp stream.Checkpoint
	for {
		loaded, err := stream.LoadCheckpoint(standbyPath)
		if err == nil && loaded.TopologyEpoch >= 1 && loaded.Snapshot != nil && loaded.Snapshot.Resolve != nil {
			cp = loaded
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby checkpoint never synced past the swap: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Still n1 at the kill: no probe marked the busy owner down early.
	if code, hdr := clusterGet(t, snapURL, nil); code != http.StatusOK || hdr.Get("X-Tenant-Node") != "n1" {
		t.Fatalf("before the kill, reads answered %d by %q, want 200 by n1", code, hdr.Get("X-Tenant-Node"))
	}
	stopN1()

	// Phase 3: the coordinator's probes must notice, promote n2, and
	// serve the tenant from there with the topology epoch preserved —
	// the signature of a warm checkpoint restore, not a cold replay
	// (which would start over at epoch 0).
	var first stream.Snapshot
	for {
		code, hdr := clusterGet(t, snapURL, &first)
		if code == http.StatusOK && hdr.Get("X-Tenant-Node") == "n2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never took over: last code %d via %q", code, hdr.Get("X-Tenant-Node"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if first.TopologyEpoch < cp.TopologyEpoch {
		t.Fatalf("handoff lost the topology epoch: serving %d, checkpoint had %d",
			first.TopologyEpoch, cp.TopologyEpoch)
	}
	var listing struct {
		Tenants []struct {
			Name     string `json:"name"`
			Node     string `json:"node"`
			Restored bool   `json:"restored"`
		} `json:"tenants"`
	}
	if code, _ := clusterGet(t, coordBase+"/v1/tenants", &listing); code != http.StatusOK {
		t.Fatalf("/v1/tenants status %d", code)
	}
	found := false
	for _, row := range listing.Tenants {
		if row.Name == "tl" && row.Node == "n2" {
			found = true
			if !row.Restored {
				t.Fatalf("promoted tenant not marked restored: %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("aggregated listing has no tl row on n2: %+v", listing.Tenants)
	}

	// Phase 4: n2's first re-solve past the handoff point must be
	// warm-started. The metric history pins it exactly — polling served
	// snapshots could skip a publication, history cannot.
	var warm stream.MetricPoint
	for {
		var m struct {
			Points []stream.MetricPoint `json:"points"`
		}
		if code, _ := clusterGet(t, coordBase+"/v1/t/tl/metrics", &m); code == http.StatusOK {
			for _, p := range m.Points {
				if p.Interval > first.Interval && p.HasResolve && p.ResolveInterval > first.ResolveInterval {
					warm = p
					break
				}
			}
		}
		if warm.HasResolve {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no re-solve published after the handoff (restored at interval %d, resolve@%d)",
				first.Interval, first.ResolveInterval)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !warm.ResolveWarm {
		t.Fatalf("first post-handoff re-solve was cold: %+v", warm)
	}
	if warm.ResolveIterations <= 0 {
		t.Fatalf("post-handoff re-solve reports no iterations: %+v", warm)
	}

	// Phase 5 (cold control): the same synced checkpoint, stripped of
	// its warm-start material, restored into a fresh in-process fleet.
	// Its first post-restore re-solve runs cold and must need more
	// solver iterations than n2's warm one.
	cold := cp
	coldSnap := *cp.Snapshot
	coldSnap.Resolve = nil
	coldSnap.ResolveWarm = false
	coldSnap.ResolveIterations = 0
	cold.Snapshot = &coldSnap
	cold.WarmAlpha = nil
	coldDir := t.TempDir()
	if err := stream.SaveCheckpoint(filepath.Join(coldDir, "tl.ckpt"), cold); err != nil {
		t.Fatal(err)
	}
	cf := fleet.New(runner.NewPool(0), fleet.Options{CheckpointDir: coldDir})
	cten, err := cf.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cf.RestoreAll(); err != nil || restored != 1 {
		t.Fatalf("cold control restore: %d tenants, %v", restored, err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	cdone := make(chan error, 1)
	go func() { cdone <- cf.Run(cctx) }()
	var coldPoint stream.MetricPoint
	for {
		for _, p := range cten.Metrics() {
			if p.HasResolve && p.ResolveInterval > cp.Snapshot.ResolveInterval {
				coldPoint = p
				break
			}
		}
		if coldPoint.HasResolve {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cold control never re-solved past the checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ccancel()
	<-cdone
	if coldPoint.ResolveWarm {
		t.Fatalf("cold control's first re-solve was warm: %+v", coldPoint)
	}
	if warm.ResolveIterations >= coldPoint.ResolveIterations {
		t.Fatalf("handoff re-solve took %d iterations, cold control %d — the checkpoint handoff did not preserve the warm start",
			warm.ResolveIterations, coldPoint.ResolveIterations)
	}
	t.Logf("warm post-handoff re-solve: %d iterations vs %d cold (epoch %d preserved)",
		warm.ResolveIterations, coldPoint.ResolveIterations, first.TopologyEpoch)
}
