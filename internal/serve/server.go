package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stream"
)

// DeltaMediaType is the Accept value that negotiates delta responses on
// /v1/t/{name}/snapshot (and the Content-Type of the delta document).
const DeltaMediaType = "application/vnd.tmserve.delta+json"

// DefaultLongPollTimeout bounds ?min_version long-polls so an abandoned
// stream cannot pin a waiter forever.
const DefaultLongPollTimeout = 30 * time.Second

// Backend is the tenant collection a Server reads through: the fleet
// lifecycle handles plus the fleet-level health view. *fleet.Fleet is
// the in-process implementation; the interface exists so a server can
// front any set of lifecycle handles — which is what makes the serving
// layer indifferent to where tenants actually run.
type Backend interface {
	// Handles returns every tenant's lifecycle handle in declaration
	// order.
	Handles() []fleet.Handle
	// Handle looks a tenant's handle up by name.
	Handle(name string) (fleet.Handle, bool)
	// Statuses reports every tenant's status in declaration order.
	Statuses() []fleet.Status
	// Healthy reports whether no tenant has failed.
	Healthy() bool
}

// NodeAdmin is the cluster-member hook a node-mode daemon plugs into
// its server: it names the node (for the X-Tenant-Node header) and
// adopts tenants on promotion — the receiving half of checkpoint
// handoff. Nil disables the cluster admin routes.
type NodeAdmin interface {
	// NodeName returns this node's name in the cluster config.
	NodeName() string
	// Adopt makes the node host the named tenant, restoring the shipped
	// checkpoint when non-nil (else the node's synced standby copy, else
	// cold).
	Adopt(ctx context.Context, tenant string, cp *stream.Checkpoint) error
}

// Options configures a Server. The zero value of every field selects
// its default.
type Options struct {
	// Node, when non-nil, enables the cluster-member admin surface:
	// GET /v1/t/{name}/checkpoint (the migration handoff document) and
	// POST /v1/cluster/adopt, plus the X-Tenant-Node response header on
	// tenant-scoped v1 routes.
	Node NodeAdmin
	// LongPollTimeout bounds ?min_version waits; <= 0 selects
	// DefaultLongPollTimeout.
	LongPollTimeout time.Duration
	// Metrics is the registry GET /metrics/prom renders. The daemon
	// shares one registry between the fleet and the server so estimation
	// and serving telemetry land on a single scrape; nil gets a private
	// registry carrying only the serving families.
	Metrics *obs.Registry
}

// Server is the HTTP read path over a fleet: one hub per tenant and the
// versioned /v1 API on top. Construct with New, mount with Handler.
type Server struct {
	runCtx  context.Context
	f       Backend
	opts    Options
	metrics *obs.Registry

	hubMu sync.Mutex
	hubs  map[string]*Hub
}

// New builds a server over a backend and starts one hub observation
// loop per tenant; the loops stop when runCtx is cancelled, which also
// releases every pending long-poll (the daemon's graceful shutdown).
// Tenants adopted after construction (cluster promotion) get their hub
// lazily on first touch.
func New(runCtx context.Context, f Backend, opts Options) *Server {
	if opts.LongPollTimeout <= 0 {
		opts.LongPollTimeout = DefaultLongPollTimeout
	}
	s := &Server{
		runCtx: runCtx,
		f:      f,
		opts:   opts,
		hubs:   make(map[string]*Hub),
	}
	for _, t := range f.Handles() {
		s.hubFor(t)
	}
	s.metrics = opts.Metrics
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.registerMetrics()
	return s
}

// registerMetrics declares the serving-side telemetry families: hub
// fan-out state and counters, labeled by tenant. Collectors walk the
// live hub set per scrape, so tenants adopted after construction are
// covered the moment their hub exists.
func (s *Server) registerMetrics() {
	eachHub := func(emit obs.Emit, field func(st HubStats) float64) {
		for _, t := range s.f.Handles() {
			h, ok := s.Hub(t.Name())
			if !ok {
				continue // adopted tenant not yet touched
			}
			emit(field(h.Stats()), t.Name())
		}
	}
	tenant := []string{"tenant"}
	gauges := []struct {
		name, help string
		field      func(st HubStats) float64
	}{
		{"tm_serving_waiters", "Long-poll waiters currently parked on the tenant's hub.",
			func(st HubStats) float64 { return float64(st.Waiters) }},
		{"tm_serving_subscribers", "SSE subscribers currently attached to the tenant's hub.",
			func(st HubStats) float64 { return float64(st.Subscribers) }},
		{"tm_serving_cached_versions", "Encoded snapshot versions retained for delta chains and conditional gets.",
			func(st HubStats) float64 { return float64(st.CachedVersions) }},
	}
	for _, g := range gauges {
		field := g.field
		s.metrics.GaugeFunc(g.name, g.help, tenant, func(emit obs.Emit) { eachHub(emit, field) })
	}
	counters := []struct {
		name, help string
		field      func(st HubStats) float64
	}{
		{"tm_served_waits_total", "Long-poll waits answered (fast path and parked).",
			func(st HubStats) float64 { return float64(st.ServedWaits) }},
		{"tm_snapshot_broadcasts_total", "Snapshot publications encoded and fanned out by the tenant's hub.",
			func(st HubStats) float64 { return float64(st.Broadcasts) }},
		{"tm_snapshot_encode_seconds_total", "Wall time the tenant's hub spent encoding snapshot publications.",
			func(st HubStats) float64 { return st.EncodeSeconds }},
		{"tm_dropped_subscribers_total", "SSE subscribers dropped for falling behind the broadcast.",
			func(st HubStats) float64 { return float64(st.DroppedSubscribers) }},
		{"tm_shed_waiters_total", "Long-polls and subscriptions refused at the waiter cap (HTTP 429s).",
			func(st HubStats) float64 { return float64(st.ShedWaiters) }},
		{"tm_snapshot_encode_failures_total", "Snapshot publications the tenant's hub failed to encode and never served.",
			func(st HubStats) float64 { return float64(st.EncodeFailures) }},
		{"tm_snapshot_delta_skipped_total", "Snapshot publications cached without a delta because it could not beat the size ratio.",
			func(st HubStats) float64 { return float64(st.DeltaSkipped) }},
	}
	for _, c := range counters {
		field := c.field
		s.metrics.CounterFunc(c.name, c.help, tenant, func(emit obs.Emit) { eachHub(emit, field) })
	}
}

// hubFor returns the tenant's hub, creating and starting it on first
// touch — the path a tenant adopted onto a running node takes.
func (s *Server) hubFor(t fleet.Handle) *Hub {
	s.hubMu.Lock()
	defer s.hubMu.Unlock()
	if h, ok := s.hubs[t.Name()]; ok {
		return h
	}
	h := NewHub(t, HubConfig{MaxWaiters: t.Spec().MaxWaiters})
	s.hubs[t.Name()] = h
	go h.Run(s.runCtx)
	return h
}

// Hub returns the named tenant's hub (tests and stats reach through it).
func (s *Server) Hub(name string) (*Hub, bool) {
	s.hubMu.Lock()
	defer s.hubMu.Unlock()
	h, ok := s.hubs[name]
	return h, ok
}

// Handler builds the HTTP mux over the route table in Routes; the
// ClusterOnly rows are mounted only with Options.Node.
func (s *Server) Handler() http.Handler {
	var rows []Route
	for _, rt := range s.Routes() {
		if !rt.ClusterOnly || s.opts.Node != nil {
			rows = append(rows, rt)
		}
	}
	return mount(rows, s.serveTenant)
}

// handleHealthz answers liveness plus every tenant's status.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	statuses := s.f.Statuses()
	resp := map[string]any{"ok": s.f.Healthy(), "tenants": statuses}
	// SLO state rides the health document as extra keys. The HTTP status
	// stays 200 on degradation: cluster liveness probes gate on it, and a
	// tenant past its drift SLO is a page for an operator, not a reason
	// to fail the process over to a standby.
	var causes []string
	for _, st := range statuses {
		if st.Degraded {
			causes = append(causes, st.Name+": "+st.DegradedCause)
		}
	}
	if len(causes) > 0 {
		resp["degraded"] = true
		resp["causes"] = causes
	}
	writeJSON(w, http.StatusOK, resp)
}

// fetchEntry resolves a snapshot request's entry: the ?min_version
// long-poll (with the cap, timeout, shutdown and client-disconnect
// handling) or the current entry. A nil entry means the response is
// already fully handled — an error was written (including "no snapshot
// yet"), or the client vanished and nothing must be (the recorder-based
// disconnect test pins that no header is touched on that path).
func (s *Server) fetchEntry(w http.ResponseWriter, r *http.Request, h *Hub) *Entry {
	mv := r.URL.Query().Get("min_version")
	if mv == "" {
		e := h.Current()
		if e == nil {
			writeV1Error(w, http.StatusServiceUnavailable, "no_snapshot", "no snapshot yet")
		}
		return e
	}
	min, err := strconv.ParseUint(mv, 10, 64)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "bad min_version")
		return nil
	}
	// Long poll, bounded so an abandoned stream cannot pin the waiter
	// forever, and released early on daemon shutdown.
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.LongPollTimeout)
	defer cancel()
	defer context.AfterFunc(s.runCtx, cancel)()
	e, err := h.WaitMin(ctx, min)
	if err == nil {
		return e
	}
	// Four distinct failure causes, four distinct answers: a hub at its
	// waiter cap sheds load with 429 + Retry-After, a vanished client
	// gets nothing (writing a body to a dead connection just burns a
	// broken-pipe error), a shutting-down daemon says so with 503, and
	// only a genuine bounded-wait expiry is the long-poll timeout 504.
	switch {
	case errors.Is(err, ErrTooManyWaiters):
		w.Header().Set("Retry-After", "1")
		writeV1Error(w, http.StatusTooManyRequests, "too_many_waiters", "tenant long-poll capacity reached; retry later")
	case r.Context().Err() != nil:
		// Client disconnected (or its own deadline fired).
	case s.runCtx.Err() != nil:
		writeV1Error(w, http.StatusServiceUnavailable, "shutting_down", "daemon shutting down")
	default:
		writeV1Error(w, http.StatusGatewayTimeout, "timeout", "timed out waiting for version")
	}
	return nil
}

// v1Tenant is one row of GET /v1/tenants: the fleet status plus the
// tenant's serving-side hub statistics.
type v1Tenant struct {
	fleet.Status
	Serving HubStats `json:"serving"`
}

func (s *Server) handleV1Tenants(w http.ResponseWriter, r *http.Request) {
	statuses := s.f.Statuses()
	out := make([]v1Tenant, 0, len(statuses))
	for _, st := range statuses {
		row := v1Tenant{Status: st}
		if h, ok := s.Hub(st.Name); ok {
			row.Serving = h.Stats()
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

// serveCheckpoint serves the handoff document, only on cluster members:
// a standby (or the coordinator, migrating) pulls it and restores it
// warm on the new owner.
func (s *Server) serveCheckpoint(w http.ResponseWriter, _ *http.Request, t fleet.Handle) {
	cp, err := t.Checkpoint()
	if err != nil {
		writeV1Error(w, http.StatusBadGateway, "checkpoint_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// handleAdopt is the cluster-member admin route (mounted only with
// Options.Node): POST /v1/cluster/adopt receives a checkpoint handoff —
// the coordinator (or an operator) tells this node to start hosting a
// tenant, optionally shipping the previous owner's checkpoint in the
// request body.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant     string             `json:"tenant"`
		Checkpoint *stream.Checkpoint `json:"checkpoint,omitempty"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "bad adopt body: "+err.Error())
		return
	}
	if req.Tenant == "" {
		writeV1Error(w, http.StatusBadRequest, "bad_request", `adopt body needs {"tenant": "<name>"}`)
		return
	}
	w.Header().Set("X-Tenant-Node", s.opts.Node.NodeName())
	if err := s.opts.Node.Adopt(r.Context(), req.Tenant, req.Checkpoint); err != nil {
		code, errCode := http.StatusInternalServerError, "adopt_failed"
		switch {
		case errors.Is(err, fleet.ErrUnknownTenant):
			code, errCode = http.StatusNotFound, "unknown_tenant"
		case errors.Is(err, fleet.ErrAlreadyHosted):
			code, errCode = http.StatusConflict, "already_hosted"
		}
		writeV1Error(w, code, errCode, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"adopted": req.Tenant,
		"node":    s.opts.Node.NodeName(),
	})
}

// serveV1Snapshot is the negotiated read: conditional get via
// If-None-Match, delta via Accept (+ ?since or the conditional ETag as
// the base), gzip via Accept-Encoding, and the ?min_version long-poll.
func (s *Server) serveV1Snapshot(w http.ResponseWriter, r *http.Request, h *Hub) {
	e := s.fetchEntry(w, r, h)
	if e == nil {
		return
	}
	inm := r.Header.Get("If-None-Match")
	if etagMatches(inm, e.ETag) {
		w.Header().Set("ETag", e.ETag)
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), DeltaMediaType) {
		if base, ok := deltaBase(r.URL.Query().Get("since"), inm); ok {
			if base == e.Version {
				w.Header().Set("ETag", e.ETag)
				w.Header().Set("Cache-Control", "no-cache")
				w.WriteHeader(http.StatusNotModified)
				return
			}
			// A delta chain longer than the ratio of the full body is
			// no win on the wire; DeltaChain then reports nil and the
			// response falls back to the full snapshot.
			maxBytes := int(DefaultDeltaRatio * float64(len(e.JSON)))
			if chain := h.Cache().DeltaChain(base, maxBytes); chain != nil {
				writeDeltaDoc(w, e, base, chain)
				return
			}
		}
	}
	writeEntry(w, e, r)
}

// deltaBase resolves the client's base version for a delta response:
// the explicit ?since=N, else the If-None-Match ETag it presented.
func deltaBase(since, inm string) (uint64, bool) {
	if since != "" {
		v, err := strconv.ParseUint(since, 10, 64)
		return v, err == nil
	}
	for _, part := range strings.Split(inm, ",") {
		tag := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		tag = strings.Trim(tag, `"`)
		if rest, ok := strings.CutPrefix(tag, "v"); ok {
			if v, err := strconv.ParseUint(rest, 10, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// etagMatches implements If-None-Match against one strong ETag.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" || tag == etag || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

// DeltaDoc is the delta response body: the encoded patches leading from
// the client's version From to the served version To, oldest first.
// Apply each step in order to reproduce snapshot To byte-exactly.
type DeltaDoc struct {
	Format int               `json:"format"`
	From   uint64            `json:"from"`
	To     uint64            `json:"to"`
	Steps  []json.RawMessage `json:"steps"`
}

func writeDeltaDoc(w http.ResponseWriter, e *Entry, from uint64, chain [][]byte) {
	doc := DeltaDoc{Format: DeltaFormat, From: from, To: e.Version, Steps: make([]json.RawMessage, len(chain))}
	for i, step := range chain {
		doc.Steps[i] = json.RawMessage(step)
	}
	w.Header().Set("Content-Type", DeltaMediaType)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("ETag", e.ETag)
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(e.Version, 10))
	w.Header().Set("X-Delta-From", strconv.FormatUint(from, 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

// sseAnnounce is the data payload of an SSE "version" event.
type sseAnnounce struct {
	Version  uint64    `json:"version"`
	ETag     string    `json:"etag"`
	Interval int       `json:"interval"`
	Time     time.Time `json:"time"`
	// DeltaFrom is present when a "delta" event for this version
	// follows immediately after the announcement.
	DeltaFrom *uint64 `json:"delta_from,omitempty"`
}

// serveV1Events streams version announcements (and deltas, when the hub
// cached one) as Server-Sent Events until the client leaves, the daemon
// shuts down, or the subscriber falls too far behind and is dropped.
func (s *Server) serveV1Events(w http.ResponseWriter, r *http.Request, h *Hub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeV1Error(w, http.StatusInternalServerError, "streaming_unsupported", "response writer cannot stream")
		return
	}
	sub, err := h.Subscribe()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeV1Error(w, http.StatusTooManyRequests, "too_many_waiters", "tenant subscriber capacity reached; retry later")
		return
	}
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The current version opens the stream (subscribing first, so a
	// publication between the two is delivered, not lost); dedup below
	// drops the duplicate if it races in.
	var last uint64
	if e := h.Current(); e != nil {
		writeSSEEntry(w, e)
		last = e.Version
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.runCtx.Done():
			return
		case e, ok := <-sub.C:
			if !ok {
				// Dropped by the hub for falling behind; the client
				// reconnects and starts from the then-current version.
				return
			}
			if e.Version <= last {
				continue
			}
			writeSSEEntry(w, e)
			last = e.Version
			fl.Flush()
		}
	}
}

func writeSSEEntry(w http.ResponseWriter, e *Entry) {
	ann := sseAnnounce{Version: e.Version, ETag: e.ETag, Interval: e.Interval, Time: e.Time}
	if e.Delta != nil {
		from := e.DeltaFrom
		ann.DeltaFrom = &from
	}
	data, err := json.Marshal(ann)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: version\nid: %d\ndata: %s\n\n", e.Version, data)
	if e.Delta != nil {
		fmt.Fprintf(w, "event: delta\nid: %d\ndata: %s\n\n", e.Version, e.Delta)
	}
}

// ---- response helpers ----

// writeEntry serves a cached snapshot entry: the immutable encoded
// bytes (exactly what json.Encoder writes for the snapshot), the
// serving headers and ETag, and gzip when the client accepts it.
func writeEntry(w http.ResponseWriter, e *Entry, r *http.Request) {
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Snapshot-Version", strconv.FormatUint(e.Version, 10))
	body := e.JSON
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		if gz := e.Gzip(); gz != nil {
			hdr.Set("Content-Encoding", "gzip")
			hdr.Set("Vary", "Accept-Encoding")
			body = gz
		}
	}
	hdr.Set("ETag", e.ETag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeTenantMetrics serves one tenant's estimation-error history with
// the same serving headers the snapshot route carries: the newest
// snapshot version the points lead up to (X-Snapshot-Version) and its
// ETag, so a dashboard can correlate a metrics read with the snapshot
// it belongs to.
func writeTenantMetrics(w http.ResponseWriter, t fleet.Handle) {
	if version, _, ok := t.Position(); ok {
		w.Header().Set("X-Snapshot-Version", strconv.FormatUint(version, 10))
		w.Header().Set("ETag", ETag(version))
	}
	writeJSON(w, http.StatusOK, map[string]any{"points": t.Metrics()})
}

// writeJSON answers a JSON response encoded by json.Encoder.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// v1Error is the uniform v1 error envelope: {"error":{"code","message"}}.
type v1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeV1Error answers with the v1 envelope.
func writeV1Error(w http.ResponseWriter, code int, errCode, msg string) {
	writeJSON(w, code, map[string]any{"error": v1Error{Code: errCode, Message: msg}})
}
