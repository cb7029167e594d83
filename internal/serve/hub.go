package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

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

// waiter is one parked WaitMin call. The channel is buffered (depth 1)
// and delivered to at most once per park, so waiters recycle through a
// pool and a steady-state served request allocates ~nothing.
type waiter struct {
	min uint64
	ch  chan *Entry
}

var waiterPool = sync.Pool{
	New: func() any { return &waiter{ch: make(chan *Entry, 1)} },
}

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
		delete(h.subs, s)
		close(s.ch)
	}
	h.mu.Unlock()
}

// Hub is the per-tenant broadcast fan-out: one Run loop observes every
// engine publication, encodes it exactly once into the shared Cache,
// and wakes every satisfied waiter and every subscriber — replacing the
// pre-hub design of one goroutine plus one deep snapshot copy per
// long-polling client.
type Hub struct {
	src   Source
	cfg   HubConfig
	cache *Cache

	mu      sync.Mutex
	prev    *stream.Snapshot // newest observed snapshot, the delta base
	waiters map[*waiter]struct{}
	subs    map[*Subscription]struct{}

	servedWaits    atomic.Uint64 // WaitMin calls answered (fast path + parked)
	broadcasts     atomic.Uint64 // publications fanned out
	droppedSubs    atomic.Uint64 // subscribers closed for falling behind
	shedWaiters    atomic.Uint64 // WaitMin/Subscribe refusals at the waiter cap
	encodeFailures atomic.Uint64 // publications NewEntry could not encode
	deltaSkipped   atomic.Uint64 // publications cached with a base but no delta
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
	return &Hub{
		src:     src,
		cfg:     cfg,
		cache:   NewCache(DefaultCacheVersions),
		waiters: make(map[*waiter]struct{}),
		subs:    make(map[*Subscription]struct{}),
	}
}

// Cache exposes the hub's encoded-version cache (conditional gets and
// delta chains read it directly).
func (h *Hub) Cache() *Cache { return h.cache }

// Run observes source publications until ctx is done. Call it once;
// readers work before, during and after (a hub whose Run has returned
// keeps serving its last observed version).
func (h *Hub) Run(ctx context.Context) {
	for {
		h.mu.Lock()
		var next uint64
		if h.prev != nil {
			next = h.prev.Version + 1
		}
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
// against the lazy prime in Current. Readers on the fast path touch
// only the cache's own lock.
func (h *Hub) observe(snap stream.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.installLocked(snap)
}

func (h *Hub) installLocked(snap stream.Snapshot) *Entry {
	if h.prev != nil && snap.Version <= h.prev.Version {
		e, _ := h.cache.Get(snap.Version)
		return e // already observed (Run loop vs lazy prime race)
	}
	e, err := NewEntry(snap, h.prev, DefaultDeltaRatio)
	if err != nil {
		h.encodeFailures.Add(1)
		return nil // unmarshalable snapshot (a NaN, say): nothing to serve
	}
	if h.prev != nil && e.Delta == nil {
		h.deltaSkipped.Add(1)
	}
	h.prev = &snap
	h.cache.Add(e)
	h.broadcasts.Add(1)
	for w := range h.waiters {
		if e.Version >= w.min {
			w.ch <- e // buffered 1, empty by construction: never blocks
			delete(h.waiters, w)
			h.servedWaits.Add(1)
		}
	}
	for s := range h.subs {
		select {
		case s.ch <- e:
		default:
			delete(h.subs, s)
			close(s.ch)
			h.droppedSubs.Add(1)
		}
	}
	return e
}

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
// the fast path takes the Cache's read lock once and allocates
// nothing; a parked wait costs one pooled waiter registration, not a
// goroutine or a snapshot copy. Returns ErrTooManyWaiters when the hub
// is at its waiter cap.
func (h *Hub) WaitMin(ctx context.Context, min uint64) (*Entry, error) {
	if e := h.Current(); e != nil && e.Version >= min {
		h.servedWaits.Add(1)
		return e, nil
	}
	h.mu.Lock()
	// Recheck under the lock: a publication between the fast path and
	// here would otherwise be missed until the next one.
	if e := h.cache.Latest(); e != nil && e.Version >= min {
		h.mu.Unlock()
		h.servedWaits.Add(1)
		return e, nil
	}
	if len(h.waiters)+len(h.subs) >= h.cfg.MaxWaiters {
		h.mu.Unlock()
		h.shedWaiters.Add(1)
		return nil, ErrTooManyWaiters
	}
	w := waiterPool.Get().(*waiter)
	w.min = min
	h.waiters[w] = struct{}{}
	h.mu.Unlock()

	select {
	case e := <-w.ch:
		waiterPool.Put(w)
		return e, nil
	case <-ctx.Done():
		h.mu.Lock()
		delete(h.waiters, w)
		h.mu.Unlock()
		// A delivery may have raced the cancellation; prefer it, and
		// either way drain the channel before pooling the waiter.
		select {
		case e := <-w.ch:
			waiterPool.Put(w)
			return e, nil
		default:
		}
		waiterPool.Put(w)
		return nil, ctx.Err()
	}
}

// Subscribe attaches a subscriber receiving every publication from now
// on. Counts against the waiter cap; cancel it when done.
func (h *Hub) Subscribe() (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.waiters)+len(h.subs) >= h.cfg.MaxWaiters {
		h.shedWaiters.Add(1)
		return nil, ErrTooManyWaiters
	}
	s := &Subscription{ch: make(chan *Entry, h.cfg.SubscriberBuffer), hub: h}
	s.C = s.ch
	h.subs[s] = struct{}{}
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
}

// Stats reports the hub's current serving counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	waiters, subs := len(h.waiters), len(h.subs)
	var version uint64
	var etag string
	if h.prev != nil {
		version = h.prev.Version
		etag = ETag(version)
	}
	h.mu.Unlock()
	return HubStats{
		Version:            version,
		ETag:               etag,
		Waiters:            waiters,
		Subscribers:        subs,
		ServedWaits:        h.servedWaits.Load(),
		Broadcasts:         h.broadcasts.Load(),
		DroppedSubscribers: h.droppedSubs.Load(),
		ShedWaiters:        h.shedWaiters.Load(),
		CachedVersions:     h.cache.Len(),
		MaxWaiters:         h.cfg.MaxWaiters,
		EncodeFailures:     h.encodeFailures.Load(),
		DeltaSkipped:       h.deltaSkipped.Load(),
	}
}
