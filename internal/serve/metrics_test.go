package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/leakcheck"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/stream"
)

// TestMetricsPromEndpoint: the node-mode /metrics/prom scrape carries
// the serving families for every hosted tenant, renders valid
// exposition (the promtool-style linter accepts it), and advertises the
// Prometheus content type.
func TestMetricsPromEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	src.Publish(serveSnap(1))
	waitVersion(t, handler, 1)

	rec := get(t, handler, "/metrics/prom", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/prom: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body := rec.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape fails exposition lint: %v", err)
	}
	for _, want := range []string{
		`tm_serving_waiters{tenant="default"}`,
		`tm_serving_subscribers{tenant="default"}`,
		`tm_serving_cached_versions{tenant="default"}`,
		`tm_served_waits_total{tenant="default"}`,
		`tm_snapshot_broadcasts_total{tenant="default"}`,
		`tm_snapshot_encode_seconds_total{tenant="default"}`,
		`tm_dropped_subscribers_total{tenant="default"}`,
		`tm_shed_waiters_total{tenant="default"}`,
		`tm_snapshot_encode_failures_total{tenant="default"}`,
		`tm_snapshot_delta_skipped_total{tenant="default"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %s:\n%s", want, body)
		}
	}
	// A shared registry means one scrape carries fleet families too;
	// the private fallback must still serve, and non-GET is refused.
	if rec := get(t, handler, "/metrics/prom?x=1", nil); rec.Code != http.StatusOK {
		t.Errorf("query string rejected: %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/metrics/prom", nil)
	post := httptest.NewRecorder()
	handler.ServeHTTP(post, req)
	if post.Code != http.StatusMethodNotAllowed || v1Code(t, post) != "method_not_allowed" || post.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /metrics/prom: %d %q Allow %q, want 405 method_not_allowed, Allow GET, HEAD", post.Code, post.Body.String(), post.Header().Get("Allow"))
	}
}

// TestTenantMetricsHeaders: the JSON metrics route carries the same
// X-Snapshot-Version serving header and ETag the snapshot route does,
// so a dashboard can correlate an error-history read with the snapshot
// it belongs to.
func TestTenantMetricsHeaders(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, _, handler := testServer(t, ctx, Options{})
	const path = "/v1/t/default/metrics"

	// The fleet's engine has consumed nothing: no version header yet.
	rec := get(t, handler, path, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Snapshot-Version") != "" || rec.Header().Get("ETag") != "" {
		t.Fatalf("pre-snapshot %s: %d version=%q etag=%q", path, rec.Code,
			rec.Header().Get("X-Snapshot-Version"), rec.Header().Get("ETag"))
	}

	// Swap in a backend whose handle reports a position, mirroring a
	// tenant with published state.
	s.f = &stubBackend{handle: stubHandle{name: "default", version: 7}}
	rec = get(t, handler, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d", path, rec.Code)
	}
	if got := rec.Header().Get("X-Snapshot-Version"); got != "7" {
		t.Errorf("X-Snapshot-Version %q, want 7", got)
	}
	if etag := rec.Header().Get("ETag"); etag != ETag(7) {
		t.Errorf("ETag %q, want %q", etag, ETag(7))
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control %q", cc)
	}
}

// stubBackend/stubHandle fake just enough of the fleet for header
// tests: one named tenant at a fixed version.
type stubBackend struct{ handle stubHandle }

func (b *stubBackend) Handles() []fleet.Handle { return []fleet.Handle{b.handle} }
func (b *stubBackend) Handle(name string) (fleet.Handle, bool) {
	if name == b.handle.name {
		return b.handle, true
	}
	return nil, false
}
func (b *stubBackend) Statuses() []fleet.Status { return []fleet.Status{{Name: b.handle.name}} }
func (b *stubBackend) Healthy() bool            { return true }

type stubHandle struct {
	name    string
	version uint64
}

func (h stubHandle) Name() string           { return h.name }
func (h stubHandle) Spec() fleet.TenantSpec { return fleet.TenantSpec{Name: h.name} }
func (h stubHandle) Metrics() []stream.MetricPoint {
	return []stream.MetricPoint{{Version: h.version}}
}
func (h stubHandle) Position() (uint64, int, bool) { return h.version, 0, h.version != 0 }
func (h stubHandle) Latest() (stream.Snapshot, bool) {
	return stream.Snapshot{Version: h.version}, h.version != 0
}
func (h stubHandle) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	return stream.Snapshot{Version: h.version}, nil
}
func (h stubHandle) Checkpoint() (stream.Checkpoint, error) { return stream.Checkpoint{}, nil }

// TestHubShedWaiters: refusals at the waiter cap are counted — the
// signal behind tm_shed_waiters_total.
func TestHubShedWaiters(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{MaxWaiters: 1})
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if _, err := h.Subscribe(); err != ErrTooManyWaiters {
		t.Fatalf("second subscribe: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.WaitMin(ctx, 99); err != ErrTooManyWaiters {
		t.Fatalf("capped WaitMin: %v", err)
	}
	if got := h.Stats().ShedWaiters; got != 2 {
		t.Fatalf("ShedWaiters = %d, want 2", got)
	}
}

// TestHubCountsSkippedDeltasAndEncodeFailures: a publication cached
// without a delta from its predecessor counts as skipped (a chain head
// does not), and one that fails to encode counts as a failure instead
// of vanishing — the signals behind tm_snapshot_delta_skipped_total and
// tm_snapshot_encode_failures_total. Every encode, the failed one too,
// adds its time to EncodeSeconds (tm_snapshot_encode_seconds_total).
func TestHubCountsSkippedDeltasAndEncodeFailures(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	base := linalg.NewVector(200)
	for i := range base {
		base[i] = float64(i) + 0.25
	}
	snap := func(version uint64, v linalg.Vector) stream.Snapshot {
		return stream.Snapshot{Version: version, Gravity: v, Mean: v.Clone(), Fanouts: v.Clone()}
	}
	drift := base.Clone()
	drift[17]++
	moved := base.Clone()
	moved.Scale(1.7)
	broken := moved.Clone()
	broken[3] = math.NaN()
	for _, c := range []struct {
		snap           stream.Snapshot
		skipped, fails uint64
	}{
		{snap(1, base), 0, 0},   // chain head: no base, not a skip
		{snap(2, drift), 0, 0},  // one pair moved: delta kept
		{snap(3, moved), 1, 0},  // every pair moved: no delta
		{snap(4, broken), 1, 1}, // NaN: nothing to serve
	} {
		before := h.Stats().EncodeSeconds
		h.observe(c.snap)
		st := h.Stats()
		if st.DeltaSkipped != c.skipped || st.EncodeFailures != c.fails {
			t.Fatalf("after v%d: DeltaSkipped %d, EncodeFailures %d; want %d, %d",
				c.snap.Version, st.DeltaSkipped, st.EncodeFailures, c.skipped, c.fails)
		}
		if st.EncodeSeconds <= before {
			t.Fatalf("after v%d: EncodeSeconds %g did not grow from %g", c.snap.Version, st.EncodeSeconds, before)
		}
	}
	if st := h.Stats(); st.Version != 3 || st.Broadcasts != 3 {
		t.Fatalf("hub at v%d after %d broadcasts, want v3 after 3", st.Version, st.Broadcasts)
	}
}

// TestHealthzDegraded: a tenant past an SLO threshold surfaces on
// /healthz as degraded=true plus a named cause — with the HTTP status
// still 200, because cluster liveness probes gate on it.
func TestHealthzDegraded(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &degradedBackend{}
	handler := New(ctx, b, Options{}).Handler()

	rec := get(t, handler, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz status %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"degraded":true`) ||
		!strings.Contains(body, `"eu: drift 0.5 above SLO max 0.2"`) {
		t.Fatalf("degraded healthz body: %s", body)
	}

	b.healed = true
	if body := get(t, handler, "/healthz", nil).Body.String(); strings.Contains(body, "degraded") {
		t.Fatalf("healed healthz still degraded: %s", body)
	}
}

type degradedBackend struct{ healed bool }

func (b *degradedBackend) Handles() []fleet.Handle            { return nil }
func (b *degradedBackend) Handle(string) (fleet.Handle, bool) { return nil, false }
func (b *degradedBackend) Healthy() bool                      { return true }
func (b *degradedBackend) Statuses() []fleet.Status {
	if b.healed {
		return []fleet.Status{{Name: "eu"}}
	}
	return []fleet.Status{{Name: "eu", Degraded: true, DegradedCause: "drift 0.5 above SLO max 0.2"}}
}

// TestCoordinatorMetricsProm: the coordinator's own /metrics/prom
// scrape reports per-node health and routing counters, and the output
// passes the exposition linter.
func TestCoordinatorMetricsProm(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx := context.Background()
	adopts1, adopts2 := 0, 0
	n1 := stubNode(t, "n1", &adopts1)
	n2 := stubNode(t, "n2", &adopts2)
	c := cluster.NewCoordinator(stubConfig(t, n1, n2), nil, t.Logf)
	c.Registry().Sweep(ctx)
	handler := NewCoordinator(c, nil).Handler()

	// One proxied read so the routing counter has something to show.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied read: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/prom: %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("coordinator scrape fails exposition lint: %v", err)
	}
	for _, want := range []string{
		`tm_node_healthy{node="n1"} 1`,
		`tm_node_healthy{node="n2"} 1`,
		`tm_node_proxied_total{node="n1"} 1`,
		`tm_node_probe_failures_total{node="n1"} 0`,
		`tm_node_tenants{node="n1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator scrape is missing %q:\n%s", want, body)
		}
	}
}
