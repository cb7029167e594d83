package main

// End-to-end coverage of the serving layer: the snapshot headers, the
// conditional get / delta / SSE read path, and the max_waiters
// load-shedding cap — all against the real daemon, not a handler
// fixture.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/stream"
)

// replaySpec is the smallest live-ish tenant: a short deterministic
// replay that publishes a handful of versions and then idles.
var replaySpec = fleet.TenantSpec{Name: "default", Cycles: 6, Window: 4, ResolveEvery: 3, Pace: "0"}

// TestServeSnapshotHeadersE2E: the snapshot route answers with the
// Content-Type, Cache-Control and X-Snapshot-Version serving headers
// plus the ETag the conditional-get flow needs, and the unversioned
// snapshot paths are not served.
func TestServeSnapshotHeadersE2E(t *testing.T) {
	base, shutdown := startServer(t, fleetConfig(t, replaySpec))
	defer shutdown()

	// Wait until something is published, via the long-poll.
	var first stream.Snapshot
	if code := getJSON(t, base+"/v1/t/default/snapshot?min_version=1", &first); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}

	resp, err := http.Get(base + "/v1/t/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control %q", cc)
	}
	v := resp.Header.Get("X-Snapshot-Version")
	if v == "" {
		t.Error("no X-Snapshot-Version")
	}
	if etag := resp.Header.Get("ETag"); etag != `"v`+v+`"` {
		t.Errorf("ETag %q for version %s", etag, v)
	}
	for _, path := range []string{"/snapshot", "/t/default/snapshot"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeV1ReadPathE2E: conditional get, delta negotiation and the
// SSE stream against a replaying daemon. The delta legs tolerate a
// fallback to the full body (re-solve publications move every
// coordinate, where serving full IS the documented behavior) but the
// 304 leg and stream framing must hold exactly.
func TestServeV1ReadPathE2E(t *testing.T) {
	base, shutdown := startServer(t, fleetConfig(t, replaySpec))
	defer shutdown()

	var snap stream.Snapshot
	if code := getJSON(t, base+"/v1/t/default/snapshot?min_version=2", &snap); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}

	// Conditional get round trip at whatever version is now current.
	resp, err := http.Get(base + "/v1/t/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var cur stream.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag != serve.ETag(cur.Version) {
		t.Fatalf("etag %q for version %d", etag, cur.Version)
	}
	req, _ := http.NewRequest("GET", base+"/v1/t/default/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The stream may have advanced between the two requests; then the
	// conditional get correctly serves the new version instead of 304.
	switch resp.StatusCode {
	case http.StatusNotModified:
	case http.StatusOK:
		if resp.Header.Get("ETag") == etag {
			t.Fatalf("matching If-None-Match answered 200 with the same etag %s", etag)
		}
	default:
		t.Fatalf("conditional get: %d", resp.StatusCode)
	}

	// Delta negotiation from the previous version: either a delta doc
	// that applies, or the full-snapshot fallback — never an error.
	req, _ = http.NewRequest("GET", fmt.Sprintf("%s/v1/t/default/snapshot?since=%d", base, cur.Version-1), nil)
	req.Header.Set("Accept", serve.DeltaMediaType+", application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") == serve.DeltaMediaType:
		var doc serve.DeltaDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.From != cur.Version-1 || doc.To < cur.Version || len(doc.Steps) == 0 {
			t.Fatalf("delta doc from=%d to=%d steps=%d (current %d)", doc.From, doc.To, len(doc.Steps), cur.Version)
		}
		if resp.Header.Get("X-Delta-From") != fmt.Sprint(doc.From) {
			t.Fatalf("X-Delta-From %q, doc.From %d", resp.Header.Get("X-Delta-From"), doc.From)
		}
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified:
		// Full-body fallback (ratio breach or evicted base), or the
		// stream caught the base up to current. Both are in-contract.
	default:
		t.Fatalf("delta request: %d", resp.StatusCode)
	}

	// SSE: the stream must open with the current version announcement.
	sseResp, err := http.Get(base + "/v1/t/default/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	sc := bufio.NewScanner(sseResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	deadline := time.After(10 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var sawEvent, sawData bool
	for !(sawEvent && sawData) {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("event stream closed before the first announcement")
			}
			if line == "event: version" {
				sawEvent = true
			}
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"version"`) {
				sawData = true
			}
		case <-deadline:
			t.Fatal("no version announcement within 10s")
		}
	}
}

// TestServeMaxWaitersE2E: a daemon serving a tenant with
// "max_waiters": 1 sheds the second concurrent long-poll with 429 +
// Retry-After.
func TestServeMaxWaitersE2E(t *testing.T) {
	spec := replaySpec
	// An enormous pace keeps the replay from ever publishing, so
	// min_version long-polls park deterministically.
	spec.Pace = "1h"
	spec.MaxWaiters = 1
	// shutdown is called exactly once, at the end: it doubles as the
	// release of the parked waiter (and asserts the clean daemon exit).
	base, shutdown := startServer(t, fleetConfig(t, spec))

	parked := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/t/default/snapshot?min_version=99")
		if err != nil {
			parked <- -1
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()

	// The parked waiter registers asynchronously; /v1/tenants exposes the
	// live waiter count, so wait until it is really holding the one slot
	// (probing with another long-poll would race it for the cap).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tl struct {
			Tenants []struct {
				Serving struct {
					Waiters int `json:"waiters"`
				} `json:"serving"`
			} `json:"tenants"`
		}
		if code := getJSON(t, base+"/v1/tenants", &tl); code != http.StatusOK {
			t.Fatalf("/v1/tenants: %d", code)
		}
		if len(tl.Tenants) == 1 && tl.Tenants[0].Serving.Waiters >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("long-poll waiter never parked: %+v", tl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/t/default/snapshot?min_version=99")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("v1 over-cap: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code != "too_many_waiters" {
		t.Fatalf("429 envelope: %v %+v", err, envelope)
	}
	resp.Body.Close()
	shutdown() // releases the parked waiter with the shutdown 503
	if code := <-parked; code != http.StatusServiceUnavailable {
		t.Fatalf("parked waiter released with %d, want 503", code)
	}
}
