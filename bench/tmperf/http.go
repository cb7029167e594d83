package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

// The three kinds of poll.
const (
	readConditional = iota
	readDelta
	readFull
)

var readKinds = [...]string{"conditional", "delta", "full"}

// pollRec is one poll as the client saw it.
type pollRec struct {
	due        int64 // ns since base
	kind       int
	ok         bool
	latency    time.Duration // from due to the last body byte
	service    time.Duration // from sending to the last body byte
	bytes      int           // body bytes on the wire
	notMod     bool
	askedDelta bool // a delta request naming a held base
	fellBack   bool // ... answered with the full snapshot instead
	node       time.Duration
	hasNode    bool
}

// held is the client's copy of one tenant's newest version. A full body
// is kept as received and decoded only when a delta has to apply to it.
type held struct {
	version uint64
	etag    string
	raw     []byte
	snap    *stream.Snapshot
}

func (h *held) decoded() (stream.Snapshot, error) {
	if h.snap != nil {
		return *h.snap, nil
	}
	var s stream.Snapshot
	if err := json.Unmarshal(h.raw, &s); err != nil {
		return stream.Snapshot{}, fmt.Errorf("decode held version %d: %w", h.version, err)
	}
	if s.Version != h.version {
		return stream.Snapshot{}, fmt.Errorf("body of version %d says version %d", h.version, s.Version)
	}
	if err := checkVectors(s); err != nil {
		return stream.Snapshot{}, err
	}
	h.snap, h.raw = &s, nil
	return s, nil
}

// poller is the open-loop polling client: one keep-alive connection,
// polls due at a fixed rate, tenants in turn, the kind drawn from the
// workload's mix with the run's seed.
type poller struct {
	r      *streamRun
	rng    *rand.Rand
	held   map[string]*held
	checks map[string]*versionCheck
	recs   []pollRec
}

func newPoller(r *streamRun, seed int64) *poller {
	return &poller{r: r, rng: rand.New(rand.NewSource(seed)),
		held: make(map[string]*held), checks: make(map[string]*versionCheck)}
}

func (p *poller) run(ctx context.Context, start time.Time) {
	every := time.Duration(float64(time.Second) / p.r.spec.polls)
	realLoop(start, every).run(ctx, func(k int, due, started time.Time) bool {
		p.read(ctx, k, due, started)
		return true
	})
}

func (p *poller) pick() int {
	x, m := p.rng.Float64(), p.r.spec.mix
	switch {
	case x < m.conditional:
		return readConditional
	case x < m.conditional+m.delta:
		return readDelta
	}
	return readFull
}

func (p *poller) read(ctx context.Context, k int, due, started time.Time) {
	r := p.r
	tr := r.tenants[k%len(r.tenants)]
	kind := p.pick()
	id := strconv.Itoa(k)
	h := p.held[tr.name]
	rec := pollRec{due: r.since(due), kind: kind, askedDelta: kind == readDelta && h != nil}
	fail := func(err error) {
		if ctx.Err() != nil {
			return // shutting down
		}
		if errors.As(err, &checkError{}) {
			r.fails.addCheck("poll: " + err.Error())
		} else {
			r.fails.add("poll: " + err.Error())
		}
		p.recs = append(p.recs, rec)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url(tr.name, "snapshot"), nil)
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set(reqIDHeader, id)
	// Polls refuse gzip explicitly: a reverse proxy's transport asks
	// upstream for gzip on behalf of a request that names no encoding,
	// and gzipping every version would swamp the one poll connection
	// (see README.md).
	req.Header.Set("Accept-Encoding", "identity")
	if h != nil && kind != readFull {
		req.Header.Set("If-None-Match", h.etag)
	}
	if kind == readDelta {
		req.Header.Set("Accept", serve.DeltaMediaType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		fail(errors.New("transport error"))
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		fail(errors.New("reading body"))
		return
	}
	rec.latency, rec.service, rec.bytes = end.Sub(due), end.Sub(started), len(body)
	rec.node, rec.hasNode = r.node.take(id)
	if err := p.absorb(tr.name, h, resp, body, &rec); err != nil {
		fail(err)
		return
	}
	rec.ok = true
	p.recs = append(p.recs, rec)
}

// absorb checks one response against what the client holds and keeps
// its version. Failed output checks come back as checkErrors.
func (p *poller) absorb(tenant string, h *held, resp *http.Response, body []byte, rec *pollRec) error {
	switch resp.StatusCode {
	case http.StatusNotModified:
		rec.notMod = true
		if h == nil || resp.Header.Get("ETag") != h.etag {
			return checkError{fmt.Errorf("304 for a version not held")}
		}
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	v, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-Version"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad X-Snapshot-Version")
	}
	check := p.checks[tenant]
	if check == nil {
		check = &versionCheck{}
		p.checks[tenant] = check
	}
	if check.next(v) != nil {
		return checkError{fmt.Errorf("version out of order")}
	}
	etag := resp.Header.Get("ETag")
	if resp.Header.Get("Content-Type") == serve.DeltaMediaType {
		if h == nil {
			return fmt.Errorf("delta without a held base")
		}
		base, err := h.decoded()
		if err != nil {
			return checkError{err}
		}
		next, err := applyDeltaDoc(base, body, v)
		if err != nil {
			return checkError{fmt.Errorf("delta verify: %w", err)}
		}
		if err := checkVectors(next); err != nil {
			return checkError{err}
		}
		p.held[tenant] = &held{version: v, etag: etag, snap: &next}
		return nil
	}
	rec.fellBack = rec.askedDelta
	p.held[tenant] = &held{version: v, etag: etag, raw: body}
	return nil
}

// sseRec is one SSE version announcement as received.
type sseRec struct {
	at      int64         // ns since base
	deliver time.Duration // publication to receipt
}

// sseReader follows one tenant's event stream on its own connection.
type sseReader struct {
	r      *streamRun
	client *http.Client
	recs   []sseRec
}

func (s *sseReader) run(ctx context.Context, tenant string) {
	r := s.r
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url(tenant, "events"), nil)
	if err != nil {
		r.fails.add("sse: " + err.Error())
		return
	}
	resp, err := s.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.fails.add("sse: " + err.Error())
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.fails.add("sse: " + resp.Status)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // delta events carry whole patches on one line
	check := versionCheck{strict: true}
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "version" {
			continue
		}
		now := time.Now()
		var ann struct {
			Version uint64    `json:"version"`
			Time    time.Time `json:"time"`
		}
		if err := json.Unmarshal([]byte(data), &ann); err != nil {
			r.fails.add("sse: undecodable announcement")
			continue
		}
		if check.next(ann.Version) != nil {
			r.fails.addCheck("sse stream saw a version out of order")
		}
		s.recs = append(s.recs, sseRec{at: r.since(now), deliver: now.Sub(ann.Time)})
	}
	if ctx.Err() == nil {
		r.fails.add("sse stream dropped")
	}
}
