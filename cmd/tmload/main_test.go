package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/stream"
)

func TestArrivalOffsets(t *testing.T) {
	const n = 100
	window := 4 * time.Second
	uniform := arrivalOffsets("uniform", n, window)
	burst := arrivalOffsets("burst", n, window)
	ramp := arrivalOffsets("ramp", n, window)
	for i := 0; i < n; i++ {
		if burst[i] != 0 {
			t.Fatalf("burst client %d delayed %v, want 0", i, burst[i])
		}
		want := time.Duration(float64(i) / n * float64(window))
		if uniform[i] != want {
			t.Fatalf("uniform client %d at %v, want %v", i, uniform[i], want)
		}
		// Ramp's linearly increasing rate means each client arrives no
		// earlier than under uniform spacing, inside the window.
		if ramp[i] < uniform[i] || ramp[i] > window {
			t.Fatalf("ramp client %d at %v (uniform %v, window %v)", i, ramp[i], uniform[i], window)
		}
		if i > 0 && (uniform[i] < uniform[i-1] || ramp[i] < ramp[i-1]) {
			t.Fatalf("offsets not monotone at client %d", i)
		}
	}
}

func TestPickFraction(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		n, count := 1000, 0
		for i := 0; i < n; i++ {
			if pick(i, frac) {
				count++
			}
		}
		if want := int(frac * float64(n)); count != want {
			t.Fatalf("frac %v picked %d of %d, want %d", frac, count, n, want)
		}
	}
	// Interleaved, not clustered: at frac 1/4, every aligned window of 4
	// consecutive indices holds exactly one pick.
	for base := 0; base < 100; base += 4 {
		count := 0
		for i := base; i < base+4; i++ {
			if pick(i, 0.25) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("window [%d,%d) holds %d picks, want 1", base, base+4, count)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram has a nonzero quantile")
	}
	// 99 samples at ~1ms and one at 100ms: p50 near 1ms, p99 must not
	// reach the outlier, max must be exact.
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	if p50 := h.Quantile(0.50); p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 %v far from 1ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 > 2*time.Millisecond {
		t.Fatalf("p99 %v reached the outlier", p99)
	}
	if h.Quantile(1) != 100*time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("p100 %v / max %v, want 100ms", h.Quantile(1), h.Max())
	}
	// Merge preserves totals and the max.
	o := NewHist()
	o.Observe(200 * time.Millisecond)
	h.Merge(o)
	if h.total != 101 || h.Max() != 200*time.Millisecond {
		t.Fatalf("after merge: total %d max %v", h.total, h.Max())
	}
}

func TestConfigValidate(t *testing.T) {
	ok := config{url: "http://x", tenants: "default", clients: 1, duration: time.Second,
		pattern: "uniform", pollInterval: time.Millisecond}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []config{
		func(c config) config { c.pattern = "poisson"; return c }(ok),
		func(c config) config { c.clients = 0; return c }(ok),
		func(c config) config { c.duration = 0; return c }(ok),
		func(c config) config { c.sseFrac = 1.5; return c }(ok),
		func(c config) config { c.deltaFrac = -0.1; return c }(ok),
		func(c config) config { c.tenants = " "; return c }(ok),
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// stubSnapshot builds a small deterministic snapshot for the API stub.
func stubSnapshot(version uint64) stream.Snapshot {
	n := 6
	v := linalg.NewVector(n)
	for i := range v {
		v[i] = float64(version*10 + uint64(i))
	}
	return stream.Snapshot{
		Version: version, Interval: int(version), Window: 3,
		Gravity: v, Mean: v.Clone(), Fanouts: v.Clone(),
		GravityMRE: 0.1, Time: time.Unix(1700000000+int64(version), 0).UTC(),
	}
}

// stubAPI implements just enough of the v1 surface for tmload: full
// snapshots, If-None-Match 304s, ?since deltas, and an SSE stream. The
// served version flips from 1 to 2 at a fixed point into the test.
type stubAPI struct {
	t        *testing.T
	mu       sync.Mutex
	snaps    map[uint64]stream.Snapshot
	current  uint64
	advanced chan struct{} // closed when version 2 goes live
}

func newStubAPI(t *testing.T) *stubAPI {
	return &stubAPI{
		t:        t,
		snaps:    map[uint64]stream.Snapshot{1: stubSnapshot(1), 2: stubSnapshot(2)},
		current:  1,
		advanced: make(chan struct{}),
	}
}

func (s *stubAPI) advance() {
	s.mu.Lock()
	s.current = 2
	s.mu.Unlock()
	close(s.advanced)
}

func (s *stubAPI) latest() stream.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps[s.current]
}

func (s *stubAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasSuffix(r.URL.Path, "/snapshot"):
		s.serveSnapshot(w, r)
	case strings.HasSuffix(r.URL.Path, "/events"):
		s.serveEvents(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *stubAPI) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.latest()
	etag := serve.ETag(snap.Version)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Snapshot-Version", fmt.Sprint(snap.Version))
	if since := r.URL.Query().Get("since"); since == "1" && snap.Version == 2 &&
		strings.Contains(r.Header.Get("Accept"), serve.DeltaMediaType) {
		step, err := json.Marshal(serve.ComputeDelta(s.snaps[1], s.snaps[2]))
		if err != nil {
			s.t.Error(err)
			return
		}
		w.Header().Set("Content-Type", serve.DeltaMediaType)
		doc := serve.DeltaDoc{Format: serve.DeltaFormat, From: 1, To: 2, Steps: []json.RawMessage{step}}
		_ = json.NewEncoder(w).Encode(doc)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snap)
}

func (s *stubAPI) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: version\nid: 1\ndata: {\"version\":1}\n\n")
	fl.Flush()
	select {
	case <-s.advanced:
		fmt.Fprintf(w, "event: version\nid: 2\ndata: {\"version\":2}\n\n")
		fmt.Fprintf(w, "event: delta\nid: 2\ndata: {}\n\n")
		fl.Flush()
	case <-r.Context().Done():
		return
	}
	<-r.Context().Done()
}

// TestRunAgainstStub drives the full client population — conditional
// pollers, delta pollers and SSE subscribers — against the API stub and
// checks every traffic class flowed without a single error.
func TestRunAgainstStub(t *testing.T) {
	stub := newStubAPI(t)
	srv := httptest.NewServer(stub)
	defer srv.Close()
	go func() {
		time.Sleep(300 * time.Millisecond)
		stub.advance()
	}()
	res, err := run(context.Background(), config{
		url: srv.URL, tenants: "default", clients: 12, duration: 900 * time.Millisecond,
		pattern: "burst", pollInterval: 20 * time.Millisecond,
		sseFrac: 0.25, deltaFrac: 0.5,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors: %v", res.Errors, res.ErrorMsgs)
	}
	if res.Requests == 0 || res.OK == 0 {
		t.Fatalf("no successful requests: %+v", res)
	}
	if res.NotMod == 0 {
		t.Fatal("no 304s: conditional polling never hit the hot path")
	}
	if res.Deltas == 0 {
		t.Fatal("no delta responses were served and verified")
	}
	if res.SSEEvents == 0 {
		t.Fatal("no SSE events received")
	}
	if res.Hist.Quantile(0.99) == 0 {
		t.Fatal("no latency samples recorded")
	}
}

// TestRunCountsServerErrors pins the failure accounting: a server
// answering 500 must surface as counted errors with messages, and run
// itself must not error (the caller decides the exit code).
func TestRunCountsServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	res, err := run(context.Background(), config{
		url: srv.URL, tenants: "default", clients: 3, duration: 200 * time.Millisecond,
		pattern: "uniform", pollInterval: 20 * time.Millisecond,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || len(res.ErrorMsgs) == 0 {
		t.Fatalf("server 500s were not counted: %+v", res)
	}
	if !strings.Contains(res.ErrorMsgs[0], "status 500") {
		t.Fatalf("error message %q does not carry the status", res.ErrorMsgs[0])
	}
}
