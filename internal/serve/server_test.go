package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/fleet"
	"repro/internal/leakcheck"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/stream"
)

// testFleet builds a fleet of idle-feed tenants (just "default" when no
// specs are given), the same shape cmd/tmserve's handler tests use.
func testFleet(t *testing.T, specs ...fleet.TenantSpec) *fleet.Fleet {
	t.Helper()
	if len(specs) == 0 {
		specs = []fleet.TenantSpec{{Name: "default"}}
	}
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(runner.NewPool(1), fleet.Options{})
	for _, spec := range specs {
		if _, err := f.AddFeed(spec, sc, fleet.Feed{
			Store:   collector.NewStore(sc.Net.NumPairs()),
			Collect: func(context.Context) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// testServer builds a Server over an idle fleet and swaps the tenant's
// hub for one over a hand-driven fake source, so tests control exactly
// what is published. Returns the server, the source, and the handler.
// Every goroutine the server starts must be gone once the test has
// cancelled runCtx.
func testServer(t *testing.T, runCtx context.Context, opts Options) (*Server, *fakeSource, http.Handler) {
	t.Helper()
	t.Cleanup(leakcheck.Check(t))
	s := New(runCtx, testFleet(t), opts)
	src := newFakeSource()
	h := NewHub(src, HubConfig{})
	s.hubs["default"] = h
	go h.Run(runCtx)
	return s, src, s.Handler()
}

// serveSnap is a snapshot big enough that one-coordinate drifts beat
// the delta size ratio.
func serveSnap(version uint64) stream.Snapshot {
	v := linalg.NewVector(300)
	for i := range v {
		v[i] = float64(i) + 0.5
	}
	v[0] += float64(version)
	return stream.Snapshot{
		Version: version, Interval: int(version), Window: 3,
		Gravity: v, Mean: v.Clone(), Fanouts: v.Clone(),
		Time: time.Unix(1700000000+int64(version), 0).UTC(),
	}
}

func get(t *testing.T, handler http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec
}

// TestServerByteCompat: the snapshot route serves exactly the bytes
// json.Encoder writes for the snapshot, with the uniform serving
// headers and no encoding the client did not ask for — on the plain
// read and on the ?min_version fast path alike.
func TestServerByteCompat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	snap := serveSnap(3)
	src.Publish(snap)

	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(snap); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/t/default/snapshot", "/v1/t/default/snapshot?min_version=3"} {
		rec := get(t, handler, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		if rec.Body.String() != want.String() {
			t.Fatalf("GET %s: body differs from json.Encoder output", path)
		}
		h := rec.Header()
		if h.Get("Content-Type") != "application/json" ||
			h.Get("Cache-Control") != "no-cache" ||
			h.Get("X-Snapshot-Version") != "3" {
			t.Fatalf("GET %s: headers %v", path, h)
		}
		if h.Get("Content-Encoding") != "" {
			t.Fatalf("GET %s: negotiated an encoding without Accept-Encoding", path)
		}
	}
}

// TestServerOnlyV1Routes: the route table holds only /v1 rows plus
// /metrics/prom and /healthz, and the pre-v1 paths — the tenant routes
// and the single-tenant aliases — are not served, whether the server
// fronts one tenant or several.
func TestServerOnlyV1Routes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for _, rt := range append(Routes(), CoordinatorRoutes()...) {
		if !strings.HasPrefix(rt.Pattern, "/v1/") && rt.Pattern != "/metrics/prom" && rt.Pattern != "/healthz" {
			t.Errorf("route table lists %s %s outside /v1", rt.Method, rt.Pattern)
		}
	}
	for _, specs := range [][]fleet.TenantSpec{{{Name: "default"}}, {{Name: "default"}, {Name: "eu"}}} {
		ctx, cancel := context.WithCancel(context.Background())
		handler := New(ctx, testFleet(t, specs...), Options{}).Handler()
		for _, path := range []string{"/tenants", "/t/default/snapshot", "/t/default/metrics", "/snapshot", "/metrics"} {
			if rec := get(t, handler, path, nil); rec.Code != http.StatusNotFound {
				t.Errorf("%d tenant(s): GET %s answered %d, want 404", len(specs), path, rec.Code)
			}
		}
		cancel()
	}
}

// TestServerV1ConditionalGet: ETag round trip — 200 with the tag, then
// 304 when the client presents it, then 200 again once the version moves.
func TestServerV1ConditionalGet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	src.Publish(serveSnap(1))

	rec := get(t, handler, "/v1/t/default/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("v1 snapshot: %d %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if etag != `"v1"` {
		t.Fatalf("etag %q", etag)
	}
	if rec.Header().Get("X-Snapshot-Version") != "1" || rec.Header().Get("Cache-Control") != "no-cache" {
		t.Fatalf("v1 headers: %v", rec.Header())
	}
	rec = get(t, handler, "/v1/t/default/snapshot", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("conditional get: %d, %dB body", rec.Code, rec.Body.Len())
	}
	src.Publish(serveSnap(2))
	waitVersion(t, handler, 2)
	rec = get(t, handler, "/v1/t/default/snapshot", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != `"v2"` {
		t.Fatalf("stale conditional get: %d etag %q", rec.Code, rec.Header().Get("ETag"))
	}
}

// waitVersion polls the handler until the served version reaches v (the
// hub observation loop is asynchronous to Publish).
func waitVersion(t *testing.T, handler http.Handler, v uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := get(t, handler, "/v1/t/default/snapshot", nil)
		if rec.Code == http.StatusOK {
			var snap struct {
				Version uint64 `json:"version"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &snap) == nil && snap.Version >= v {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("version %d never served", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerV1Delta: a client at version 1 asking for deltas gets the
// patch document, and applying it reproduces version 2 byte-exactly;
// ?since at the current version is a 304; without a usable chain the
// response falls back to the full snapshot.
func TestServerV1Delta(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	s1, s2 := serveSnap(1), serveSnap(2)
	src.Publish(s1)
	waitVersion(t, handler, 1)
	src.Publish(s2)
	waitVersion(t, handler, 2)

	hdr := map[string]string{"Accept": DeltaMediaType + ", application/json"}
	rec := get(t, handler, "/v1/t/default/snapshot?since=1", hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta get: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != DeltaMediaType {
		t.Fatalf("delta content type %q", ct)
	}
	if rec.Header().Get("X-Delta-From") != "1" || rec.Header().Get("X-Snapshot-Version") != "2" {
		t.Fatalf("delta headers: %v", rec.Header())
	}
	var doc DeltaDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.From != 1 || doc.To != 2 || len(doc.Steps) != 1 {
		t.Fatalf("doc from=%d to=%d steps=%d", doc.From, doc.To, len(doc.Steps))
	}
	cur := s1
	for _, step := range doc.Steps {
		d, err := DecodeDelta(step)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = Apply(cur, d); err != nil {
			t.Fatal(err)
		}
	}
	gotB, _ := json.Marshal(cur)
	wantB, _ := json.Marshal(s2)
	if string(gotB) != string(wantB) {
		t.Fatal("applied delta differs from the served snapshot")
	}

	// Already current: 304.
	rec = get(t, handler, "/v1/t/default/snapshot?since=2", hdr)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("since=current: %d", rec.Code)
	}
	// Unknown base: full snapshot fallback.
	rec = get(t, handler, "/v1/t/default/snapshot?since=99", hdr)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("broken-chain fallback: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	// The If-None-Match ETag works as the delta base too.
	rec = get(t, handler, "/v1/t/default/snapshot", map[string]string{
		"Accept": DeltaMediaType, "If-None-Match": `"v1"`,
	})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != DeltaMediaType {
		t.Fatalf("etag-based delta: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

// TestServerV1Gzip: Accept-Encoding negotiates the shared gzip body on
// v1 full snapshots.
func TestServerV1Gzip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	snap := serveSnap(1)
	src.Publish(snap)
	rec := get(t, handler, "/v1/t/default/snapshot", map[string]string{"Accept-Encoding": "gzip"})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip get: %d, encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
	if rec.Header().Get("Vary") != "Accept-Encoding" {
		t.Fatal("gzip response without Vary")
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(snap)
	want = append(want, '\n')
	if string(body) != string(want) {
		t.Fatal("gzip body does not inflate to the JSON snapshot")
	}
}

// TestServerV1Errors: the uniform envelope and status codes across the
// v1 error surface.
func TestServerV1Errors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, handler := testServer(t, ctx, Options{LongPollTimeout: 50 * time.Millisecond})

	cases := []struct {
		path, method string
		status       int
		code         string
	}{
		{"/v1/t/nosuch/snapshot", "GET", http.StatusNotFound, "unknown_tenant"},
		{"/v1/t/default", "GET", http.StatusNotFound, "missing_endpoint"},
		{"/v1/t/default/teapot", "GET", http.StatusNotFound, "unknown_endpoint"},
		{"/v1/t/default/snapshot?min_version=nope", "GET", http.StatusBadRequest, "bad_request"},
		{"/v1/t/default/snapshot", "POST", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"/v1/tenants", "POST", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"/v1/t/default/snapshot", "GET", http.StatusServiceUnavailable, "no_snapshot"},
		{"/v1/t/default/snapshot?min_version=9", "GET", http.StatusGatewayTimeout, "timeout"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
			continue
		}
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: envelope does not parse: %v (%s)", tc.path, err, rec.Body.String())
			continue
		}
		if e.Error.Code != tc.code || e.Error.Message == "" {
			t.Errorf("%s: code %q message %q, want code %q", tc.path, e.Error.Code, e.Error.Message, tc.code)
		}
	}
}

// TestServerWaiterCap429: long-polls and SSE subscriptions shed load
// with 429 + Retry-After at the tenant spec's waiter cap.
func TestServerWaiterCap429(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, testFleet(t, fleet.TenantSpec{Name: "default", MaxWaiters: 1}), Options{LongPollTimeout: 5 * time.Second})
	handler := s.Handler()

	park := make(chan int, 1)
	go func() {
		rec := get(t, handler, "/v1/t/default/snapshot?min_version=9", nil)
		park <- rec.Code
	}()
	h, _ := s.Hub("default")
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first long-poll never parked")
		}
		time.Sleep(time.Millisecond)
	}
	rec := get(t, handler, "/v1/t/default/snapshot?min_version=9", nil)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("v1 over-cap: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code != "too_many_waiters" {
		t.Fatalf("v1 over-cap envelope: %s", rec.Body.String())
	}
	// SSE subscription is refused at the cap too.
	rec = get(t, handler, "/v1/t/default/events", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("events over-cap: %d", rec.Code)
	}
	cancel() // release the parked poll (shutdown path)
	if code := <-park; code != http.StatusServiceUnavailable {
		t.Fatalf("parked poll released with %d, want 503", code)
	}
}

// TestServerV1Events: the SSE stream announces the current version on
// connect and every publication (with its delta) after; a live network
// server exercises real flushing.
func TestServerV1Events(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	src.Publish(serveSnap(1))
	waitVersion(t, handler, 1)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/t/default/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	expect := func(what string, pred func(string) bool) string {
		t.Helper()
		timeout := time.After(5 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended waiting for %s", what)
				}
				if pred(line) {
					return line
				}
			case <-timeout:
				t.Fatalf("no %s within 5s", what)
			}
		}
	}
	expect("initial announcement", func(l string) bool { return l == "event: version" })
	expect("initial data", func(l string) bool {
		return strings.HasPrefix(l, "data: ") && strings.Contains(l, `"version":1`)
	})
	src.Publish(serveSnap(2))
	expect("v2 announcement data", func(l string) bool {
		return strings.HasPrefix(l, "data: ") && strings.Contains(l, `"version":2`) && strings.Contains(l, `"delta_from":1`)
	})
	expect("v2 delta event", func(l string) bool { return l == "event: delta" })
}

// TestRoutesAllServed: every pattern in the route table resolves to a
// real handler (no drift between Routes() and the mux).
func TestRoutesAllServed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, handler := testServer(t, ctx, Options{})
	src.Publish(serveSnap(1))
	waitVersion(t, handler, 1)
	for _, rt := range Routes() {
		if rt.ClusterOnly {
			continue // mounted only with Options.Node; TestServerClusterEndpoints covers them
		}
		path := strings.ReplaceAll(rt.Pattern, "{name}", "default")
		reqCtx, reqCancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		req := httptest.NewRequest(rt.Method, path, nil).WithContext(reqCtx)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // events returns on reqCtx expiry
		reqCancel()
		if rec.Code == http.StatusNotFound {
			t.Errorf("route %s %s is in the table but served 404", rt.Method, rt.Pattern)
		}
	}
	// /v1/tenants carries the serving stats block.
	rec := get(t, handler, "/v1/tenants", nil)
	var tl struct {
		Tenants []struct {
			Name    string   `json:"name"`
			Serving HubStats `json:"serving"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil || len(tl.Tenants) != 1 {
		t.Fatalf("/v1/tenants: %v %s", err, rec.Body.String())
	}
	if tl.Tenants[0].Name != "default" || tl.Tenants[0].Serving.Version != 1 || tl.Tenants[0].Serving.MaxWaiters == 0 {
		t.Fatalf("serving stats: %+v", tl.Tenants[0])
	}
}
