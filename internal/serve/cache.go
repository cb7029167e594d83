package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// Entry is one published snapshot, encoded exactly once and shared
// immutably by every client that reads that version: the full JSON
// body, the ETag, a lazily-computed gzip variant, and (when the
// publication drifted little enough from the previously observed one)
// the encoded delta from that predecessor. All fields except the gzip
// state are written before the entry is installed and never after.
type Entry struct {
	Version  uint64
	Interval int
	Time     time.Time
	// ETag is the strong validator v1 conditional gets use ("v<version>").
	ETag string
	// JSON is json.Marshal(snapshot) plus a trailing newline — exactly
	// the bytes json.Encoder writes for the snapshot.
	JSON []byte
	// DeltaFrom/Delta encode the patch from the previously observed
	// version; Delta is nil when this entry is a chain head (first
	// observation) or the delta blew past the size-ratio fallback.
	DeltaFrom uint64
	Delta     []byte

	gzOnce sync.Once
	gz     []byte
}

// NewEntry encodes one snapshot into an immutable cache entry. prev is
// the previously observed snapshot (nil for the first), the delta base.
func NewEntry(snap stream.Snapshot, prev *stream.Snapshot, deltaRatio float64) (*Entry, error) {
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("serve: encode snapshot v%d: %w", snap.Version, err)
	}
	body = append(body, '\n')
	e := &Entry{
		Version:  snap.Version,
		Interval: snap.Interval,
		Time:     snap.Time,
		ETag:     ETag(snap.Version),
		JSON:     body,
	}
	if prev == nil {
		return e, nil // a chain head has no delta base
	}
	// Size the delta from the body before building it: a publication
	// that moved most coordinates (every interval close on a gravity-
	// only tenant) cannot beat the ratio, and building its delta only to
	// drop it cost more than encoding the body. The bound never exceeds
	// the delta's real size, so the skip changes no entry's bytes.
	limit := deltaLimit(len(body), deltaRatio)
	if float64(deltaSizeBound(body, *prev, snap, limit)) > limit {
		return e, nil
	}
	if data := EncodeDelta(*prev, snap, len(body), deltaRatio); data != nil {
		e.DeltaFrom = prev.Version
		e.Delta = data
	}
	return e, nil
}

// ETag formats a version as the strong validator the v1 API serves and
// parses ("v<version>", quoted on the wire).
func ETag(version uint64) string { return fmt.Sprintf(`"v%d"`, version) }

// Gzip returns the gzip encoding of the full JSON body, computed once
// per entry on first use and shared by every gzip-accepting client.
func (e *Entry) Gzip() []byte {
	e.gzOnce.Do(func() {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(e.JSON); err == nil && zw.Close() == nil {
			e.gz = buf.Bytes()
		} else {
			zw.Close()
		}
	})
	return e.gz
}

// Cache keeps the last K encoded snapshot versions, newest first. One
// writer (the hub loop) installs entries; any number of readers fetch
// them. Entries are immutable once installed.
type Cache struct {
	mu      sync.RWMutex
	cap     int
	entries map[uint64]*Entry
	order   []uint64 // insertion order, oldest first
	// latest is written under mu but read without it: every parked
	// waiter re-reads it on each publication.
	latest atomic.Pointer[Entry]
}

// DefaultCacheVersions is how many versions a cache retains when the
// host does not say otherwise: enough to delta-serve clients a few
// publications behind, small enough to be per-tenant negligible.
const DefaultCacheVersions = 16

// NewCache creates a cache holding up to capacity versions (<= 0
// selects DefaultCacheVersions).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheVersions
	}
	return &Cache{cap: capacity, entries: make(map[uint64]*Entry, capacity)}
}

// Add installs an entry as the newest version, evicting the oldest past
// capacity. Versions must be installed in increasing order (the hub's
// single observation loop guarantees it).
func (c *Cache) Add(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[e.Version]; dup {
		return
	}
	c.entries[e.Version] = e
	c.order = append(c.order, e.Version)
	c.latest.Store(e)
	for len(c.order) > c.cap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// Latest returns the newest installed entry, nil before the first.
func (c *Cache) Latest() *Entry { return c.latest.Load() }

// Get fetches one version.
func (c *Cache) Get(version uint64) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[version]
	return e, ok
}

// Len reports how many versions are cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// DeltaChain collects the encoded deltas leading from version `from` to
// the latest entry, oldest first. It returns nil (meaning "serve the
// full snapshot instead") when the chain is broken: `from` is not the
// chain predecessor of some cached entry, any link lacks a delta, or
// the summed delta sizes exceed maxBytes. A `from` equal to the latest
// version returns an empty non-nil chain (nothing to send).
func (c *Cache) DeltaChain(from uint64, maxBytes int) [][]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	latest := c.latest.Load()
	if latest == nil {
		return nil
	}
	if from == latest.Version {
		return [][]byte{}
	}
	var chain [][]byte
	total := 0
	// Walk back from the latest entry through DeltaFrom links until
	// reaching `from`; reverse at the end.
	for at := latest; ; {
		if at.Delta == nil {
			return nil // chain head or ratio fallback: no path to `from`
		}
		total += len(at.Delta)
		if maxBytes > 0 && total > maxBytes {
			return nil
		}
		chain = append(chain, at.Delta)
		if at.DeltaFrom == from {
			break
		}
		prev, ok := c.entries[at.DeltaFrom]
		if !ok {
			return nil // predecessor evicted
		}
		at = prev
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
