package collector

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/linalg"
)

// Store is the central database of §5.1.2: it accepts JSON-lines rate
// records over TCP and assembles them into per-interval traffic matrices.
type Store struct {
	numLSPs int

	mu        sync.Mutex
	intervals map[int]*intervalState // interval -> rates + coverage
	// free recycles the state of pruned intervals: a streaming consumer
	// prunes as it goes, so an endless run creates each interval's rate
	// vector and coverage set once and then cycles the same buffers
	// forever. Stored vectors are never handed out (Matrix clones, Take
	// transfers ownership out of the store first), so a pruned interval's
	// buffers cannot be retained by anyone.
	free    []*intervalState
	records int
	latest  int // max interval ever ingested (-1 before the first)
	pruned  int // intervals below this have been discarded for good
	stopped bool
	subs    map[int]chan struct{}
	nextSub int

	ln net.Listener
	wg sync.WaitGroup
}

// intervalState is everything the store holds for one polling interval:
// the per-LSP rate vector and a fixed bitset (plus running popcount)
// tracking which LSPs have reported. The previous design kept a
// map[int]bool per interval that grew bucket by bucket as records
// arrived, making ingestion the hottest allocation site in the whole
// fleet; the bitset state is two allocations per interval (the struct —
// with the bits inlined for backbones up to 512 LSPs — and the vector),
// and both are recycled through Store.free once the interval is pruned.
type intervalState struct {
	v       linalg.Vector
	covered int
	bits    []uint64
	small   [8]uint64 // inline backing for bits when numLSPs <= 512
}

func newIntervalState(numLSPs int) *intervalState {
	st := &intervalState{}
	if words := (numLSPs + 63) / 64; words <= len(st.small) {
		st.bits = st.small[:words]
	} else {
		st.bits = make([]uint64, words)
	}
	st.v = linalg.NewVector(numLSPs)
	return st
}

// reset clears a recycled state for a new interval, re-allocating the
// rate vector only if Take transferred the previous one away.
func (st *intervalState) reset(numLSPs int) {
	if st.v == nil {
		st.v = linalg.NewVector(numLSPs)
	} else {
		st.v.Zero()
	}
	for i := range st.bits {
		st.bits[i] = 0
	}
	st.covered = 0
}

func (st *intervalState) add(lsp int) {
	word, bit := lsp/64, uint64(1)<<(lsp%64)
	if st.bits[word]&bit == 0 {
		st.bits[word] |= bit
		st.covered++
	}
}

// NewStore creates a store for the given LSP count.
func NewStore(numLSPs int) *Store {
	return &Store{
		numLSPs:   numLSPs,
		intervals: make(map[int]*intervalState),
		latest:    -1,
		subs:      make(map[int]chan struct{}),
	}
}

// LatestInterval returns the highest interval index ever ingested, or -1
// if the store is empty. O(1); streaming consumers use it to detect that
// earlier intervals have been closed out.
func (s *Store) LatestInterval() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// Prune discards every interval below the given index and refuses late
// records for them from then on. A streaming consumer that has folded an
// interval into its own window calls this so an endless collection run
// holds O(window) rather than O(elapsed time) in the store. Batch users
// (the examples) never call it and keep the full history.
func (s *Store) Prune(before int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before > s.pruned {
		s.pruned = before
	}
	for iv, st := range s.intervals {
		if iv < s.pruned {
			s.free = append(s.free, st)
			delete(s.intervals, iv)
		}
	}
}

// NumLSPs returns the LSP count the store was sized for.
func (s *Store) NumLSPs() int { return s.numLSPs }

// Subscribe registers for readiness wake-ups and returns the wake-up
// channel plus a cancel function. The store signals on exactly two
// edges: a record that raises LatestInterval (which may close earlier
// intervals) and a record that completes an interval's coverage. A
// duplicate record, or a partial one for an interval below the latest,
// wakes nobody. Wake-ups carry no payload and coalesce — the channel
// holds at most one pending — so a consumer re-derives readiness from
// LatestInterval and Coverage on each, and an edge that lands while it
// scans leaves a wake-up pending for the next scan.
func (s *Store) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	s.mu.Lock()
	if s.stopped {
		// Subscribing after Stop yields an already-closed channel, so a
		// consumer that raced the shutdown still observes end-of-stream
		// (after draining whatever the store ingested) instead of
		// blocking forever.
		s.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.mu.Unlock()
	}
	return ch, cancel
}

// notifyLocked leaves a wake-up pending on every subscriber; one that
// already has one pending absorbs it. Callers hold s.mu.
func (s *Store) notifyLocked() {
	for _, ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Start listens on an ephemeral loopback TCP port and returns its address.
func (s *Store) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("collector: store listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.accept()
	return ln.Addr(), nil
}

// Stop closes the listener, waits for in-flight connections to finish,
// and then closes every subscription channel — so a streaming consumer
// blocked on Subscribe's channel observes the end of the collection.
func (s *Store) Stop() {
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	s.stopped = true
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.mu.Unlock()
}

func (s *Store) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 1024*1024), 1024*1024)
			for sc.Scan() {
				var rec RateRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					continue
				}
				s.Ingest(rec)
			}
		}()
	}
}

// Ingest adds one rate record (thread-safe; also usable without TCP).
// Records for intervals already discarded by Prune are dropped, so a
// straggling backup-poller upload cannot resurrect a pruned interval.
func (s *Store) Ingest(rec RateRecord) {
	if rec.LSP < 0 || rec.LSP >= s.numLSPs {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Interval < s.pruned {
		return
	}
	wake := rec.Interval > s.latest
	if wake {
		s.latest = rec.Interval
	}
	st, ok := s.intervals[rec.Interval]
	if !ok {
		if n := len(s.free); n > 0 {
			st = s.free[n-1]
			s.free = s.free[:n-1]
			st.reset(s.numLSPs)
		} else {
			st = newIntervalState(s.numLSPs)
		}
		s.intervals[rec.Interval] = st
	}
	// Backup pollers may report the same LSP twice; last write wins, which
	// is also what the paper's central database does with re-uploads.
	full := st.covered == s.numLSPs
	st.v[rec.LSP] = rec.RateMbps
	st.add(rec.LSP)
	s.records++
	if wake || (!full && st.covered == s.numLSPs) {
		s.notifyLocked()
	}
}

// Records returns the total number of ingested records.
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Coverage returns how many LSPs an interval covers, without copying
// its rates — the cheap readiness probe for streaming consumers. The
// bool is false if the interval is unknown (or pruned).
func (s *Store) Coverage(interval int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.intervals[interval]
	if !ok {
		return 0, false
	}
	return st.covered, true
}

// Matrix returns the demand vector of an interval and how many LSPs it
// covers. The bool is false if the interval is unknown.
func (s *Store) Matrix(interval int) (linalg.Vector, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.intervals[interval]
	if !ok {
		return nil, 0, false
	}
	return st.v.Clone(), st.covered, true
}

// Take is Matrix transferring ownership of the interval's rate vector to
// the caller instead of cloning it: the interval is removed from the
// store (its bookkeeping recycled), so the vector can never be written
// again and the caller may retain it without a copy. It exists for the
// store's sole consumer on the streaming path — a consumer that prunes
// as it consumes (stream.Engine.Run) already owns the store's
// history by contract; with multiple consumers, Take would make the
// interval vanish for the others, so they must use Matrix. A record
// arriving for a taken interval after the caller has pruned past it is
// dropped like any other late record for a pruned interval.
func (s *Store) Take(interval int) (linalg.Vector, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.intervals[interval]
	if !ok {
		return nil, 0, false
	}
	v, covered := st.v, st.covered
	st.v = nil // ownership moved out; reset re-allocates on reuse
	delete(s.intervals, interval)
	s.free = append(s.free, st)
	return v, covered, true
}

// Intervals returns the sorted list of known interval indices.
func (s *Store) Intervals() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.intervals))
	for k := range s.intervals {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; interval counts are small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Uplink streams rate records to a store over TCP as JSON lines. It is the
// poller-side transport client.
type Uplink struct {
	conn net.Conn
	enc  *json.Encoder
	mu   sync.Mutex
}

// DialUplink connects to the store.
func DialUplink(addr string) (*Uplink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: dial store: %w", err)
	}
	return &Uplink{conn: conn, enc: json.NewEncoder(conn)}, nil
}

// Send uploads one record.
func (u *Uplink) Send(rec RateRecord) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.enc.Encode(rec)
}

// Close closes the connection.
func (u *Uplink) Close() error { return u.conn.Close() }
