package serve

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/linalg"
	"repro/internal/stream"
)

// fakeSource is a hand-driven Source: tests publish snapshots and any
// number of WaitVersion calls observe them, like a stream.Engine.
type fakeSource struct {
	mu     sync.Mutex
	latest stream.Snapshot
	have   bool
	wake   chan struct{}
}

func newFakeSource() *fakeSource { return &fakeSource{wake: make(chan struct{})} }

func (f *fakeSource) Publish(s stream.Snapshot) {
	f.mu.Lock()
	f.latest = s
	f.have = true
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

func (f *fakeSource) Latest() (stream.Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latest, f.have
}

func (f *fakeSource) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	for {
		f.mu.Lock()
		if f.have && f.latest.Version >= min {
			s := f.latest
			f.mu.Unlock()
			return s, nil
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return stream.Snapshot{}, ctx.Err()
		}
	}
}

func hubSnap(version uint64) stream.Snapshot {
	v := linalg.NewVector(4)
	for i := range v {
		v[i] = float64(version)*10 + float64(i)
	}
	return stream.Snapshot{
		Version: version, Interval: int(version), Window: 3,
		Gravity: v, Mean: v.Clone(), Fanouts: v.Clone(),
		Time: time.Unix(1700000000+int64(version), 0).UTC(),
	}
}

// TestHubFanout: many concurrent waiters, one publication — every
// waiter receives the same shared encoded entry, whose bytes are the
// snapshot's one-time encoding.
func TestHubFanout(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	src := newFakeSource()
	h := NewHub(src, HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)

	const waiters = 64
	got := make(chan *Entry, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := h.WaitMin(ctx, 1)
			if err != nil {
				t.Errorf("WaitMin: %v", err)
				return
			}
			got <- e
		}()
	}
	time.Sleep(20 * time.Millisecond) // park the waiters
	snap := hubSnap(1)
	src.Publish(snap)
	wg.Wait()
	close(got)

	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var first *Entry
	n := 0
	for e := range got {
		n++
		if first == nil {
			first = e
		}
		if e != first {
			t.Fatal("waiters received different entry pointers; encoding was not shared")
		}
	}
	if n != waiters {
		t.Fatalf("%d of %d waiters served", n, waiters)
	}
	if string(first.JSON) != string(want) {
		t.Fatalf("entry bytes differ from json.Marshal(snapshot)+\\n")
	}
	if first.ETag != `"v1"` {
		t.Fatalf("etag %q, want %q", first.ETag, `"v1"`)
	}
	if st := h.Stats(); st.Version != 1 || st.ServedWaits < waiters {
		t.Fatalf("stats after fanout: %+v", st)
	}
}

// TestHubWaiterCap: with MaxWaiters=2, a third concurrent waiter is
// refused with ErrTooManyWaiters, and the parked two still complete.
func TestHubWaiterCap(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	src := newFakeSource()
	h := NewHub(src, HubConfig{MaxWaiters: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := h.WaitMin(ctx, 1)
			results <- err
		}()
	}
	waitFor(t, "the waiters to park", func() bool { return h.Stats().Waiters == 2 })
	if _, err := h.WaitMin(ctx, 1); err != ErrTooManyWaiters {
		t.Fatalf("third waiter got %v, want ErrTooManyWaiters", err)
	}
	// Subscribe counts against the same cap.
	if _, err := h.Subscribe(); err != ErrTooManyWaiters {
		t.Fatalf("subscribe at cap got %v, want ErrTooManyWaiters", err)
	}
	src.Publish(hubSnap(1))
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked waiter failed: %v", err)
		}
	}
}

// TestHubLazyPrime: a hub whose Run loop never observed anything (the
// restored-from-checkpoint boot race) still serves the source's latest
// snapshot on the first read.
func TestHubLazyPrime(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	src := newFakeSource()
	src.Publish(hubSnap(7))
	h := NewHub(src, HubConfig{}) // Run intentionally not started
	e := h.Current()
	if e == nil || e.Version != 7 {
		t.Fatalf("Current() = %+v, want primed version 7", e)
	}
	if e2, err := h.WaitMin(context.Background(), 7); err != nil || e2 != e {
		t.Fatalf("WaitMin fast path gave (%v, %v), want the primed entry", e2, err)
	}
	// No snapshot at all: Current is nil, not a panic.
	empty := NewHub(newFakeSource(), HubConfig{})
	if empty.Current() != nil {
		t.Fatal("empty source primed an entry")
	}
}

// TestHubWaitMinCancel: a cancelled waiter leaves no registration
// behind, and the cancellation error is the context's.
func TestHubWaitMinCancel(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := NewHub(newFakeSource(), HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.WaitMin(ctx, 1)
		done <- err
	}()
	waitFor(t, "the waiter to park", func() bool { return h.Stats().Waiters == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled WaitMin returned %v", err)
	}
	if st := h.Stats(); st.Waiters != 0 {
		t.Fatalf("%d waiters left registered after cancellation", st.Waiters)
	}
}

// waitFor polls cond until it holds, failing the test after 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

type waitResult struct {
	e   *Entry
	err error
}

// goWaitMin runs WaitMin on its own goroutine and returns its result.
func goWaitMin(ctx context.Context, h *Hub, min uint64) <-chan waitResult {
	res := make(chan waitResult, 1)
	go func() {
		e, err := h.WaitMin(ctx, min)
		res <- waitResult{e, err}
	}()
	return res
}

// TestHubWaiterAheadStaysParked: a publication below a waiter's min
// wakes it, and it parks again rather than returning an older entry.
func TestHubWaiterAheadStaysParked(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := NewHub(newFakeSource(), HubConfig{})
	h.observe(hubSnap(1))
	res := goWaitMin(context.Background(), h, 3)
	waitFor(t, "the waiter to park", func() bool { return h.Stats().Waiters == 1 })
	h.observe(hubSnap(2))
	select {
	case r := <-res:
		t.Fatalf("waiter for v3 returned (%v, %v) after v2", r.e, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if st := h.Stats(); st.Waiters != 1 {
		t.Fatalf("%d waiters parked after the in-between publication, want 1", st.Waiters)
	}
	h.observe(hubSnap(3))
	if r := <-res; r.err != nil || r.e.Version != 3 {
		t.Fatalf("waiter for v3 got (%v, %v)", r.e, r.err)
	}
	if st := h.Stats(); st.Waiters != 0 {
		t.Fatalf("%d waiters left after delivery", st.Waiters)
	}
}

// TestHubCancelRacingPublication: a waiter whose context is cancelled
// after the publication it waits for still returns that entry, whichever
// of the two its select sees first.
func TestHubCancelRacingPublication(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for i := 0; i < 200; i++ {
		h := NewHub(newFakeSource(), HubConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		res := goWaitMin(ctx, h, 1)
		waitFor(t, "the waiter to park", func() bool { return h.Stats().Waiters == 1 })
		h.observe(hubSnap(1))
		cancel()
		if r := <-res; r.err != nil || r.e.Version != 1 {
			t.Fatalf("round %d: cancellation after the publication gave (%v, %v)", i, r.e, r.err)
		}
	}
}

// TestHubCapExactUnderRace: waiters and subscribers racing for the last
// slots never overshoot MaxWaiters, and every refusal is counted.
func TestHubCapExactUnderRace(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const limit, callers = 32, 128
	h := NewHub(newFakeSource(), HubConfig{MaxWaiters: limit})
	ctx, cancel := context.WithCancel(context.Background())
	start := make(chan struct{})
	subs := make(chan *Subscription, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(waiter bool) {
			defer wg.Done()
			<-start
			if waiter {
				h.WaitMin(ctx, 1) // parks until cancel, or is refused
				return
			}
			if s, err := h.Subscribe(); err == nil {
				subs <- s
			}
		}(i%2 == 0)
	}
	close(start)
	waitFor(t, "every caller to be admitted or refused", func() bool {
		st := h.Stats()
		return uint64(st.Waiters+st.Subscribers)+st.ShedWaiters == callers
	})
	if st := h.Stats(); st.Waiters+st.Subscribers != limit || st.ShedWaiters != callers-limit {
		t.Fatalf("%d waiters + %d subscribers admitted and %d shed, want %d and %d",
			st.Waiters, st.Subscribers, st.ShedWaiters, limit, callers-limit)
	}
	cancel()
	wg.Wait()
	close(subs)
	for s := range subs {
		s.Cancel()
	}
	if st := h.Stats(); st.Waiters != 0 || st.Subscribers != 0 {
		t.Fatalf("%d waiters and %d subscribers left after release", st.Waiters, st.Subscribers)
	}
}

// TestHubRunSkipsUnencodableVersion: Run moves past a version it cannot
// encode, counting it once, instead of asking the source for it again;
// waiters parked for it are served by the next version.
func TestHubRunSkipsUnencodableVersion(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	src := newFakeSource()
	h := NewHub(src, HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)
	src.Publish(hubSnap(1))
	waitFor(t, "v1", func() bool { return h.Stats().Version == 1 })
	res := goWaitMin(ctx, h, 2)
	broken := hubSnap(2)
	broken.Gravity[0] = math.NaN()
	src.Publish(broken)
	waitFor(t, "the encode failure", func() bool { return h.Stats().EncodeFailures > 0 })
	time.Sleep(50 * time.Millisecond) // a spinning Run would re-encode v2 here
	if n := h.Stats().EncodeFailures; n != 1 {
		t.Fatalf("one unencodable version counted %d times", n)
	}
	src.Publish(hubSnap(3))
	if r := <-res; r.err != nil || r.e.Version != 3 {
		t.Fatalf("waiter for v2 got (%v, %v), want v3", r.e, r.err)
	}
	if st := h.Stats(); st.EncodeFailures != 1 || st.Broadcasts != 2 {
		t.Fatalf("after v3: %d encode failures, %d broadcasts; want 1 and 2", st.EncodeFailures, st.Broadcasts)
	}
}

// TestHubStatsSkipsHubLock: Stats reads atomics and the cache, so a
// scrape returns while an encode holds the hub mutex.
func TestHubStatsSkipsHubLock(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	h.observe(hubSnap(4))
	h.mu.Lock()
	defer h.mu.Unlock()
	done := make(chan HubStats, 1)
	go func() { done <- h.Stats() }()
	select {
	case st := <-done:
		if st.Version != 4 || st.ETag != `"v4"` {
			t.Fatalf("Stats under the hub lock reported v%d %s", st.Version, st.ETag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked on the hub mutex")
	}
}

// TestHubSubscribeAndDrop: subscribers receive every publication in
// order; one that stops draining is dropped (channel closed) instead of
// stalling the broadcast.
func TestHubSubscribeAndDrop(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	live, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= subscriberBuffer+2; v++ {
		h.observe(hubSnap(v))
		if e, ok := <-live.C; !ok || e.Version != v {
			t.Fatalf("live subscriber got (%v, %v) at version %d", e, ok, v)
		}
	}
	// stuck never drained its buffer: the broadcast of the version past
	// it must have dropped it, holding every version the buffer took.
	var versions []uint64
	for e := range stuck.C { // closed by the hub
		versions = append(versions, e.Version)
	}
	if len(versions) != subscriberBuffer || versions[0] != 1 || versions[subscriberBuffer-1] != subscriberBuffer {
		t.Fatalf("dropped subscriber drained %v, want [1 … %d]", versions, subscriberBuffer)
	}
	if st := h.Stats(); st.DroppedSubscribers != 1 || st.Subscribers != 1 {
		t.Fatalf("stats after drop: %+v", st)
	}
	live.Cancel()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("cancel left %d subscribers", st.Subscribers)
	}
	stuck.Cancel() // idempotent after the hub-side drop
}

// TestHubDeltaChain: consecutive small drifts produce a cache whose
// delta chain from an old version applies back to the latest snapshot
// byte-exactly.
func TestHubDeltaChain(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	// Vectors large enough that a one-coordinate drift beats the size
	// ratio (a 4-element snapshot's delta never would — the scalar block
	// dominates, and the ratio fallback correctly serves full bodies).
	base := linalg.NewVector(200)
	for i := range base {
		base[i] = float64(i) + 0.5
	}
	snaps := map[uint64]stream.Snapshot{}
	for v := uint64(1); v <= 5; v++ {
		s := hubSnap(1)
		s.Version = v
		s.Interval = int(v)
		s.Gravity = base.Clone()
		s.Gravity[0] += float64(v)
		s.Mean = base.Clone()
		s.Fanouts = base.Clone()
		snaps[v] = s
		h.observe(s)
	}
	chain := h.Cache().DeltaChain(2, 1<<20)
	if len(chain) != 3 {
		t.Fatalf("chain from v2 has %d steps, want 3", len(chain))
	}
	cur := snaps[2]
	for _, raw := range chain {
		d, err := DecodeDelta(raw)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = Apply(cur, d); err != nil {
			t.Fatal(err)
		}
	}
	gotB, _ := json.Marshal(cur)
	wantB, _ := json.Marshal(snaps[5])
	if string(gotB) != string(wantB) {
		t.Fatal("delta chain did not reproduce the latest snapshot")
	}
	// Chain to the latest version itself is empty but present.
	if c := h.Cache().DeltaChain(5, 1<<20); c == nil || len(c) != 0 {
		t.Fatalf("chain from the latest version = %v, want empty non-nil", c)
	}
	// A byte budget below the chain size reports nil (serve full).
	if c := h.Cache().DeltaChain(2, 1); c != nil {
		t.Fatal("over-budget chain did not fall back to full")
	}
	// An evicted-from base breaks the chain.
	if c := h.Cache().DeltaChain(0, 1<<20); c != nil {
		t.Fatal("chain from an unknown version did not fall back to full")
	}
}

// TestCacheEviction: the cache retains only its capacity, newest wins.
func TestCacheEviction(t *testing.T) {
	c := NewCache(3)
	for v := uint64(1); v <= 5; v++ {
		e, err := NewEntry(hubSnap(v), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(e)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d versions, want 3", c.Len())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted version still present")
	}
	if e, ok := c.Get(5); !ok || c.Latest() != e {
		t.Fatal("latest version missing or inconsistent")
	}
}

// TestEntryGzip: the gzip body is computed once and round-trips.
func TestEntryGzip(t *testing.T) {
	e, err := NewEntry(hubSnap(1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	gz1 := e.Gzip()
	gz2 := e.Gzip()
	if len(gz1) == 0 {
		t.Fatal("empty gzip body")
	}
	if &gz1[0] != &gz2[0] {
		t.Fatal("gzip recomputed per call")
	}
}
