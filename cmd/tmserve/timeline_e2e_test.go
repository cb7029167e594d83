package main

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
)

// TestEndToEndTimeline drives the committed failure+reroute script
// under the real daemon: the served snapshot must ride through the
// scripted link failure (epoch 1) and restoration (epoch 2) with warm
// re-solves, and the status and metrics surfaces must expose the
// advancing topology epoch.
func TestEndToEndTimeline(t *testing.T) {
	base, shutdown := startServer(t, fleetConfig(t, fleet.TenantSpec{
		Name:   "default",
		Source: "scenario:script:../../examples/timelines/failure_reroute.json",
		Cycles: 1, Window: 6, ResolveEvery: 3, Pace: "5ms",
	}))
	defer shutdown()

	// The script is 30 intervals with the restore at 20: wait for the
	// final interval's re-solve on the restored topology.
	deadline := time.Now().Add(time.Minute)
	var final stream.Snapshot
	for {
		getJSON(t, base+"/v1/t/default/snapshot", &final)
		if final.Interval == 29 && final.Resolve != nil && final.ResolveInterval == 29 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline never finished: interval %d epoch %d resolve@%d",
				final.Interval, final.TopologyEpoch, final.ResolveInterval)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.TopologyEpoch != 2 {
		t.Fatalf("final snapshot on epoch %d, want 2 (failed link restored)", final.TopologyEpoch)
	}
	if !final.ResolveWarm {
		t.Fatal("final re-solve cold; hot-swaps should have preserved the warm start")
	}

	// The metric history must show the epoch advancing 0 -> 1 -> 2 as
	// the scripted failure and restoration hit.
	var m struct {
		Points []stream.MetricPoint `json:"points"`
	}
	getJSON(t, base+"/v1/t/default/metrics", &m)
	epochs := map[int]bool{}
	prev := 0
	for _, p := range m.Points {
		if p.TopologyEpoch < prev {
			t.Fatalf("topology epoch regressed %d -> %d at interval %d", prev, p.TopologyEpoch, p.Interval)
		}
		prev = p.TopologyEpoch
		epochs[p.TopologyEpoch] = true
	}
	for ep := 0; ep <= 2; ep++ {
		if !epochs[ep] {
			t.Fatalf("metrics never served a point on epoch %d (saw %v)", ep, epochs)
		}
	}

	// The tenant status surface reports the epoch the engine is on.
	var statuses struct {
		Tenants []struct {
			Name          string `json:"name"`
			State         string `json:"state"`
			TopologyEpoch int    `json:"topology_epoch"`
		} `json:"tenants"`
	}
	if code := getJSON(t, base+"/v1/tenants", &statuses); code != http.StatusOK {
		t.Fatalf("/v1/tenants status %d", code)
	}
	if len(statuses.Tenants) != 1 || statuses.Tenants[0].TopologyEpoch != 2 {
		t.Fatalf("tenant status %+v, want the single script tenant on epoch 2", statuses.Tenants)
	}

	var health struct {
		OK bool `json:"ok"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz code=%d ok=%v after a completed timeline", code, health.OK)
	}
}
