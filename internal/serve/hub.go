package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// Source is the engine-shaped publication feed a Hub multiplexes:
// *stream.Engine satisfies it, and tests and benchmarks substitute
// synthetic publishers.
type Source interface {
	// Latest returns the newest snapshot, ok=false before the first.
	Latest() (stream.Snapshot, bool)
	// WaitVersion blocks until a snapshot with Version >= min exists or
	// ctx is done.
	WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error)
}

// ErrTooManyWaiters is returned by WaitMin and Subscribe when the hub's
// waiter cap is reached — the HTTP layer maps it to 429 + Retry-After
// instead of letting waiters grow without bound.
var ErrTooManyWaiters = errors.New("serve: too many waiters")

// DefaultMaxWaiters bounds concurrent long-poll waiters plus SSE
// subscribers per hub when the host does not say otherwise.
const DefaultMaxWaiters = 65536

// DefaultSubscriberBuffer is each subscription's entry buffer; a
// subscriber that falls this many publications behind is dropped
// (closed) rather than allowed to stall the broadcast.
const DefaultSubscriberBuffer = 16

// HubConfig tunes a Hub. The zero value selects every default.
type HubConfig struct {
	// MaxWaiters caps concurrent long-poll waiters + SSE subscribers;
	// <= 0 selects DefaultMaxWaiters.
	MaxWaiters int
	// SubscriberBuffer is each subscription's channel depth; <= 0
	// selects DefaultSubscriberBuffer.
	SubscriberBuffer int
}

// Waiters and subscribers share one occupancy word, so a single
// compare-and-swap checks and takes a slot of the MaxWaiters cap: parked
// WaitMin calls count in the low 32 bits, subscriptions in the high 32.
const (
	waiterSlot     uint64 = 1
	subscriberSlot uint64 = 1 << 32
)

// Subscription is one SSE (or test) subscriber: receive entries from C
// until it is closed — by Cancel, or by the hub when the subscriber
// fell SubscriberBuffer publications behind.
type Subscription struct {
	C   <-chan *Entry
	ch  chan *Entry
	hub *Hub
}

// Cancel detaches the subscription. Safe to call once, from the
// receiving goroutine, even if the hub dropped the subscription first.
func (s *Subscription) Cancel() {
	h := s.hub
	h.mu.Lock()
	if _, in := h.subs[s]; in {
		h.detachLocked(s)
	}
	h.mu.Unlock()
}

// Hub is the per-tenant broadcast fan-out: one Run loop observes every
// engine publication, encodes it exactly once into the shared Cache,
// wakes every parked waiter with one channel close, and hands the entry
// to every subscriber in order — replacing the pre-hub design of one
// goroutine plus one deep snapshot copy per long-polling client.
type Hub struct {
	src   Source
	cfg   HubConfig
	cache *Cache

	// gen is the current publication generation: every install closes
	// it and stores a fresh one, so all parked waiters wake at once and
	// re-check the cache without touching mu.
	gen atomic.Pointer[chan struct{}]
	// occupancy counts waiters and subscribers (see waiterSlot).
	occupancy atomic.Uint64

	mu   sync.Mutex
	prev *stream.Snapshot // newest installed snapshot, the delta base
	next uint64           // lowest version not yet observed, encoded or not
	subs map[*Subscription]struct{}

	servedWaits    atomic.Uint64 // WaitMin calls answered (fast path + parked)
	broadcasts     atomic.Uint64 // publications fanned out
	droppedSubs    atomic.Uint64 // subscribers closed for falling behind
	shedWaiters    atomic.Uint64 // WaitMin/Subscribe refusals at the waiter cap
	encodeFailures atomic.Uint64 // publications NewEntry could not encode
	deltaSkipped   atomic.Uint64 // publications cached with a base but no delta
	encodeNanos    atomic.Uint64 // wall time spent in NewEntry
}

// NewHub creates a hub over a source. Drive it with Run (usually one
// goroutine per tenant) and read it with Current / WaitMin / Subscribe.
func NewHub(src Source, cfg HubConfig) *Hub {
	if cfg.MaxWaiters <= 0 {
		cfg.MaxWaiters = DefaultMaxWaiters
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = DefaultSubscriberBuffer
	}
	h := &Hub{
		src:   src,
		cfg:   cfg,
		cache: NewCache(DefaultCacheVersions),
		subs:  make(map[*Subscription]struct{}),
	}
	h.gen.Store(newGeneration())
	return h
}

func newGeneration() *chan struct{} {
	ch := make(chan struct{})
	return &ch
}

// Cache exposes the hub's encoded-version cache (conditional gets and
// delta chains read it directly).
func (h *Hub) Cache() *Cache { return h.cache }

// Run observes source publications until ctx is done, moving past any
// version that fails to encode. Call it once; readers work before,
// during and after (a hub whose Run has returned keeps serving its last
// observed version).
func (h *Hub) Run(ctx context.Context) {
	for {
		h.mu.Lock()
		next := h.next
		h.mu.Unlock()
		snap, err := h.src.WaitVersion(ctx, next)
		if err != nil {
			return // ctx done
		}
		h.observe(snap)
	}
}

// observe encodes one snapshot, installs it, and fans it out. The
// encode happens under the hub lock: it runs once per publication (not
// per client), and holding the lock makes version monotonicity trivial
// against the lazy prime in Current. Other readers never take it: they
// load the cache's latest entry and the generation channel atomically.
func (h *Hub) observe(snap stream.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.installLocked(snap)
}

func (h *Hub) installLocked(snap stream.Snapshot) *Entry {
	if snap.Version < h.next {
		e, _ := h.cache.Get(snap.Version)
		return e // already observed (Run loop vs lazy prime race)
	}
	h.next = snap.Version + 1
	start := time.Now()
	e, err := NewEntry(snap, h.prev, DefaultDeltaRatio)
	h.encodeNanos.Add(uint64(time.Since(start)))
	if err != nil {
		h.encodeFailures.Add(1)
		return nil // unmarshalable snapshot (a NaN, say): nothing to serve
	}
	if h.prev != nil && e.Delta == nil {
		h.deltaSkipped.Add(1)
	}
	h.prev = &snap
	// The entry is in the cache before the generation closes, so a
	// waiter that loaded the old generation finds it when it wakes.
	h.cache.Add(e)
	h.broadcasts.Add(1)
	close(*h.gen.Swap(newGeneration()))
	for s := range h.subs {
		select {
		case s.ch <- e:
		default:
			h.detachLocked(s)
			h.droppedSubs.Add(1)
		}
	}
	return e
}

// detachLocked removes a subscription, closes its channel and frees its
// slot. Callers hold h.mu and have checked that s is attached.
func (h *Hub) detachLocked(s *Subscription) {
	delete(h.subs, s)
	close(s.ch)
	h.release(subscriberSlot)
}

// reserve takes one slot of the MaxWaiters cap (waiterSlot or
// subscriberSlot), or counts a shed refusal when the cap is reached.
func (h *Hub) reserve(slot uint64) bool {
	for {
		n := h.occupancy.Load()
		if int(n%subscriberSlot+n/subscriberSlot) >= h.cfg.MaxWaiters {
			h.shedWaiters.Add(1)
			return false
		}
		if h.occupancy.CompareAndSwap(n, n+slot) {
			return true
		}
	}
}

// release frees a slot reserve took.
func (h *Hub) release(slot uint64) { h.occupancy.Add(-slot) }

// Current returns the newest encoded entry, priming the cache from the
// source's latest snapshot when the Run loop has not observed one yet
// (a restored engine serves its checkpointed snapshot on the very first
// request, before any publication). Nil means no snapshot exists yet.
func (h *Hub) Current() *Entry {
	if e := h.cache.Latest(); e != nil {
		return e
	}
	snap, ok := h.src.Latest()
	if !ok {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.cache.Latest(); e != nil {
		return e // another primer won the race
	}
	return h.installLocked(snap)
}

// WaitMin returns the newest entry with Version >= min, blocking until
// one is published or ctx is done. It is the multiplexed long poll:
// the fast path reads the cache and allocates nothing; a parked wait
// takes one slot of the waiter cap and selects on the hub's current
// generation channel, which every publication closes. A waiter whose
// min is still ahead of that publication loads the next generation and
// parks again, without taking the hub mutex. Returns ErrTooManyWaiters
// when the hub is at its waiter cap.
func (h *Hub) WaitMin(ctx context.Context, min uint64) (*Entry, error) {
	if e := h.Current(); e != nil && e.Version >= min {
		h.servedWaits.Add(1)
		return e, nil
	}
	if !h.reserve(waiterSlot) {
		return nil, ErrTooManyWaiters
	}
	defer h.release(waiterSlot)
	for cancelled := false; ; {
		// Load the generation before reading the cache: an install adds
		// its entry before closing the generation, so a publication
		// between the two reads still wakes the select below.
		gen := *h.gen.Load()
		if e := h.cache.Latest(); e != nil && e.Version >= min {
			h.servedWaits.Add(1)
			return e, nil
		}
		if cancelled {
			return nil, ctx.Err()
		}
		select {
		case <-gen:
		case <-ctx.Done():
			cancelled = true // look once more: a publication may have raced it
		}
	}
}

// Subscribe attaches a subscriber receiving every publication from now
// on. Counts against the waiter cap; cancel it when done.
func (h *Hub) Subscribe() (*Subscription, error) {
	if !h.reserve(subscriberSlot) {
		return nil, ErrTooManyWaiters
	}
	s := &Subscription{ch: make(chan *Entry, h.cfg.SubscriberBuffer), hub: h}
	s.C = s.ch
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s, nil
}

// HubStats is the hub's serving telemetry, exposed per tenant by the
// v1 API.
type HubStats struct {
	Version            uint64 `json:"version"`
	ETag               string `json:"etag,omitempty"`
	Waiters            int    `json:"waiters"`
	Subscribers        int    `json:"subscribers"`
	ServedWaits        uint64 `json:"served_waits"`
	Broadcasts         uint64 `json:"broadcasts"`
	DroppedSubscribers uint64 `json:"dropped_subscribers"`
	ShedWaiters        uint64 `json:"shed_waiters"`
	CachedVersions     int    `json:"cached_versions"`
	MaxWaiters         int    `json:"max_waiters"`
	// EncodeFailures counts publications that failed to encode (a
	// non-finite value): they are never served, and waiters parked for
	// them keep waiting for the next one.
	EncodeFailures uint64 `json:"encode_failures"`
	// DeltaSkipped counts publications cached without a delta from
	// their predecessor because it could not beat the size ratio,
	// whether the size bound or the encoded delta showed it.
	DeltaSkipped uint64 `json:"delta_skipped"`
	// EncodeSeconds is the total wall time spent encoding publications
	// (NewEntry, failures included); over Broadcasts it is the mean
	// encode time.
	EncodeSeconds float64 `json:"encode_seconds"`
}

// Stats reports the hub's current serving counters without taking the
// hub mutex, so a scrape never waits out an encode.
func (h *Hub) Stats() HubStats {
	var version uint64
	var etag string
	if e := h.cache.Latest(); e != nil {
		version, etag = e.Version, e.ETag
	}
	n := h.occupancy.Load()
	return HubStats{
		Version:            version,
		ETag:               etag,
		Waiters:            int(n % subscriberSlot),
		Subscribers:        int(n / subscriberSlot),
		ServedWaits:        h.servedWaits.Load(),
		Broadcasts:         h.broadcasts.Load(),
		DroppedSubscribers: h.droppedSubs.Load(),
		ShedWaiters:        h.shedWaiters.Load(),
		CachedVersions:     h.cache.Len(),
		MaxWaiters:         h.cfg.MaxWaiters,
		EncodeFailures:     h.encodeFailures.Load(),
		DeltaSkipped:       h.deltaSkipped.Load(),
		EncodeSeconds:      time.Duration(h.encodeNanos.Load()).Seconds(),
	}
}
