package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/stream"
)

// setupTimeout bounds one set-up: every tenant published and one read
// answered.
const setupTimeout = 60 * time.Second

// streamRun is one set-up instance of a streaming workload: the fleet,
// its HTTP front, and the recorders the benchmark hangs on the calls it
// makes into them. Recorded times are nanoseconds since base, the zero
// of the generator's schedule.
type streamRun struct {
	spec   *streamSpec
	traced bool
	base   time.Time
	fails  *failures

	ctx    context.Context
	cancel context.CancelFunc
	done   chan error // fleet.Run's result
	wg     sync.WaitGroup

	fleet    *fleet.Fleet
	reg      *obs.Registry
	server   *serve.Server
	tenants  []*tenantRun
	node     *nodeTimer
	servers  []*http.Server
	readAddr string // where readers connect: the coordinator, else the node
	client   *http.Client
	// coordClient carries the coordinator's probes and listings.
	coordClient *http.Client
	ckptDir     string
}

func (r *streamRun) since(t time.Time) int64 { return int64(t.Sub(r.base)) }

// genRec is one interval as the generator produced it.
type genRec struct{ due, start, end int64 }

// tenantRun is one tenant and everything recorded about it.
type tenantRun struct {
	name   string
	src    tenantSource
	offset time.Duration // stagger within the re-solve cycle
	store  *collector.Store
	t      *fleet.Tenant
	hub    *serve.Hub

	// gen is written by the tenant's feed goroutine and read once the
	// fleet has stopped.
	gen []genRec

	// Hub observations (traced passes): when the hub received each
	// version, and each re-solve's duration by its window's interval.
	obsMu      sync.Mutex
	obs        map[uint64]int64
	resolveDur map[int]time.Duration

	wakes wakeLog

	// points is the engine's metric ring, merged across polls.
	points []stream.MetricPoint
}

// collect is the tenant's feed: an open-loop generator that closes
// interval i at its due time by ingesting every rate of the interval.
func (tr *tenantRun) collect(r *streamRun) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		realLoop(r.base.Add(tr.offset), r.spec.period).run(ctx, func(i int, due, started time.Time) bool {
			for p, mbps := range tr.src.demand(i) {
				tr.store.Ingest(collector.RateRecord{LSP: p, Interval: i, RateMbps: mbps, Poller: "tmperf"})
			}
			tr.gen = append(tr.gen, genRec{due: r.since(due), start: r.since(started), end: r.since(time.Now())})
			return true
		})
		return ctx.Err()
	}
}

// observe records the hub receiving a snapshot and checks what the
// engine published.
func (tr *tenantRun) observe(r *streamRun, snap stream.Snapshot) {
	if r.traced {
		at := r.since(time.Now())
		tr.obsMu.Lock()
		tr.obs[snap.Version] = at
		if snap.Resolve != nil {
			tr.resolveDur[snap.ResolveInterval] = snap.ResolveDuration
		}
		tr.obsMu.Unlock()
	}
	if checkVectors(snap) != nil {
		r.fails.addCheck("published vector not finite and non-negative")
	}
}

// mergePoints folds one Metrics() copy into the tenant's history,
// reporting whether points were lost because the ring wrapped between
// polls.
func (tr *tenantRun) mergePoints(pts []stream.MetricPoint) (lost bool) {
	var last uint64
	if n := len(tr.points); n > 0 {
		last = tr.points[n-1].Version
	}
	for _, p := range pts {
		if p.Version <= last {
			continue
		}
		if p.Version != last+1 {
			lost = true
		}
		tr.points = append(tr.points, p)
		last = p.Version
	}
	return lost
}

// wakeLog records, per delivered version, when the last parked waiter
// woke holding it. Waiters are spread over shards to keep them off one
// lock.
type wakeLog struct {
	shards [16]struct {
		mu sync.Mutex
		m  map[uint64]wake
	}
}

// wake is one version's delivery to the parked waiters.
type wake struct {
	last  int64 // ns since base
	bytes int   // encoded size of the entry
}

func (l *wakeLog) record(waiter int, v uint64, at int64, bytes int) {
	s := &l.shards[waiter%len(l.shards)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]wake)
	}
	w := s.m[v]
	s.m[v] = wake{last: max(w.last, at), bytes: bytes}
	s.mu.Unlock()
}

func (l *wakeLog) merged() map[uint64]wake {
	out := make(map[uint64]wake)
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for v, w := range s.m {
			w.last = max(w.last, out[v].last)
			out[v] = w
		}
		s.mu.Unlock()
	}
	return out
}

// observedFleet is the serve.Backend the benchmark hands to serve.New:
// the fleet's own handles, each wrapped so that the hub's reads of the
// engine are recorded.
type observedFleet struct {
	f       *fleet.Fleet
	handles []fleet.Handle
}

func (b *observedFleet) Handles() []fleet.Handle  { return b.handles }
func (b *observedFleet) Statuses() []fleet.Status { return b.f.Statuses() }
func (b *observedFleet) Healthy() bool            { return b.f.Healthy() }

func (b *observedFleet) Handle(name string) (fleet.Handle, bool) {
	for _, h := range b.handles {
		if h.Name() == name {
			return h, true
		}
	}
	return nil, false
}

type observedHandle struct {
	fleet.Handle
	r  *streamRun
	tr *tenantRun
}

func (h observedHandle) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	snap, err := h.Handle.WaitVersion(ctx, min)
	if err == nil {
		h.tr.observe(h.r, snap)
	}
	return snap, err
}

func (h observedHandle) Latest() (stream.Snapshot, bool) {
	snap, ok := h.Handle.Latest()
	if ok {
		h.tr.observe(h.r, snap)
	}
	return snap, ok
}

// reqIDHeader tags each poll so the node can report its own time on it.
const reqIDHeader = "X-Tmperf-Request"

// nodeTimer wraps the node's HTTP handler and records, per tagged
// request, how long the node took to answer it: the upstream half of a
// read, whether it arrived through the coordinator or directly.
type nodeTimer struct {
	next http.Handler
	on   bool

	mu   sync.Mutex
	byID map[string]time.Duration
}

func (n *nodeTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get(reqIDHeader)
	if !n.on || id == "" {
		n.next.ServeHTTP(w, req)
		return
	}
	t0 := time.Now()
	n.next.ServeHTTP(w, req)
	d := time.Since(t0)
	n.mu.Lock()
	n.byID[id] = d
	n.mu.Unlock()
}

// take returns and forgets the node time of one request.
func (n *nodeTimer) take(id string) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.byID[id]
	delete(n.byID, id)
	return d, ok
}

// readerClient is an HTTP client held to a single keep-alive connection
// that neither adds gzip on its own nor consults proxy settings.
func readerClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// setupStream builds and starts one instance of a streaming workload and
// returns once every tenant has published and a first read has been
// answered — the span setup_s times.
func setupStream(parent context.Context, spec *streamSpec, seed int64, intervals int, traced bool, dir string, fails *failures) (r *streamRun, err error) {
	ctx, cancel := context.WithCancel(parent)
	r = &streamRun{spec: spec, traced: traced, fails: fails, ctx: ctx, cancel: cancel,
		done: make(chan error, 1), reg: obs.NewRegistry(), client: readerClient()}
	started := false
	defer func() {
		if err != nil {
			if !started {
				r.done <- nil
			}
			r.stop()
		}
	}()

	opts := fleet.Options{Metrics: r.reg}
	if spec.checkpoints {
		if r.ckptDir, err = os.MkdirTemp(dir, "ckpt-"); err != nil {
			return r, err
		}
		opts.CheckpointDir = r.ckptDir
	}
	r.fleet = fleet.New(runner.NewPool(0), opts)
	backend := &observedFleet{f: r.fleet}
	// Tenants are staggered evenly across one re-solve cycle, not one
	// period: started in phase, every tenant would re-solve in the same
	// period and leave the others idle, a burst whose queueing amplifies
	// any change in machine speed.
	cycle := spec.period * time.Duration(max(1, spec.resolveEvery))
	var specs []fleet.TenantSpec
	for k := 0; k < spec.tenants; k++ {
		src, err := spec.tenant(seed, k, intervals)
		if err != nil {
			return r, fmt.Errorf("tenant %d: %w", k, err)
		}
		src.spec.ResolveEvery = spec.resolveEvery
		if spec.resolveEvery == 0 {
			src.spec.ResolveEvery = -1 // the fleet's "gravity only"
		}
		tr := &tenantRun{
			name:       src.spec.Name,
			src:        src,
			offset:     time.Duration(k) * cycle / time.Duration(spec.tenants),
			store:      collector.NewStore(src.sc.Net.NumPairs()),
			obs:        make(map[uint64]int64),
			resolveDur: make(map[int]time.Duration),
		}
		if tr.t, err = r.fleet.AddFeed(src.spec, src.sc, fleet.Feed{Store: tr.store, Collect: tr.collect(r)}); err != nil {
			return r, err
		}
		if src.tl != nil {
			if err := src.tl.RegisterSwaps(tr.t.Engine()); err != nil {
				return r, err
			}
		}
		r.tenants = append(r.tenants, tr)
		backend.handles = append(backend.handles, observedHandle{Handle: tr.t, r: r, tr: tr})
		specs = append(specs, src.spec)
	}

	nodeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	serveOpts := serve.Options{Metrics: r.reg}
	var clusterCfg cluster.Config
	if spec.coordinator {
		clusterCfg = cluster.Config{
			Format:  cluster.ConfigFormat,
			Tenants: specs,
			Nodes:   []cluster.NodeSpec{{Name: "n1", Addr: nodeLn.Addr().String()}},
		}
		node, err := cluster.NewNode(clusterCfg, "n1", r.fleet, dir, nil, nil)
		if err != nil {
			nodeLn.Close()
			return r, err
		}
		serveOpts.Node = node
	}
	r.server = serve.New(ctx, backend, serveOpts)
	for _, tr := range r.tenants {
		tr.hub, _ = r.server.Hub(tr.name)
	}
	r.node = &nodeTimer{next: r.server.Handler(), on: traced, byID: make(map[string]time.Duration)}
	r.serve(nodeLn, r.node)
	r.readAddr = nodeLn.Addr().String()
	if spec.coordinator {
		coordLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, err
		}
		r.coordClient = &http.Client{Transport: &http.Transport{}}
		cc := cluster.NewCoordinator(clusterCfg, r.coordClient, nil)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			cc.Run(ctx)
		}()
		r.serve(coordLn, serve.NewCoordinator(cc, r.coordClient).Handler())
		r.readAddr = coordLn.Addr().String()
	}

	r.base = time.Now()
	started = true
	go func() { r.done <- r.fleet.Run(ctx) }()
	wait, cancelWait := context.WithTimeout(ctx, setupTimeout)
	defer cancelWait()
	for _, tr := range r.tenants {
		if _, err := tr.t.Engine().WaitVersion(wait, 1); err != nil {
			return r, fmt.Errorf("tenant %s never published: %w", tr.name, err)
		}
	}
	req, err := http.NewRequestWithContext(wait, http.MethodGet, r.url(r.tenants[0].name, "snapshot"), nil)
	if err != nil {
		return r, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return r, fmt.Errorf("first read: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("first read: %s", resp.Status)
	}
	return r, nil
}

func (r *streamRun) url(tenant, endpoint string) string {
	return "http://" + r.readAddr + "/v1/t/" + tenant + "/" + endpoint
}

func (r *streamRun) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
}

// stop shuts the instance down and waits for everything it started.
func (r *streamRun) stop() {
	r.cancel()
	if err := <-r.done; err != nil && !errors.Is(err, context.Canceled) {
		r.fails.add("fleet: " + err.Error())
	}
	for _, srv := range r.servers {
		srv.Close()
	}
	r.wg.Wait()
	r.client.CloseIdleConnections()
	if r.coordClient != nil {
		r.coordClient.CloseIdleConnections()
	}
	if r.ckptDir != "" {
		os.RemoveAll(r.ckptDir)
	}
}

// pollMetrics merges every engine's metric ring into its tenant's
// history. Called at least once a second while tenants publish, so the
// 1024-point ring never wraps between polls.
func (r *streamRun) pollMetrics() {
	for _, tr := range r.tenants {
		if tr.mergePoints(tr.t.Engine().Metrics()) {
			r.fails.addCheck("metric ring wrapped between polls")
		}
	}
}

// load is the benchmark's reading side of a run: parked waiters, one
// SSE stream, one polling connection, the metric poller and, traced,
// the layer probes.
type load struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	poll   *poller
	sse    *sseReader

	// Traced probes.
	pendingMax int
	scrapeMs   Dist
	ckptMs     Dist
	ckptBytes  Dist
}

// startLoad starts the reading side against a set-up run.
func (r *streamRun) startLoad(seed int64, dir string) *load {
	ctx, cancel := context.WithCancel(r.ctx)
	l := &load{cancel: cancel}
	goWG := func(fn func()) {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			fn()
		}()
	}
	for _, tr := range r.tenants {
		for i := 0; i < r.spec.waiters; i++ {
			tr, i := tr, i
			goWG(func() { r.waiter(ctx, tr, i) })
		}
	}
	l.poll = newPoller(r, seed)
	goWG(func() { l.poll.run(ctx, time.Now()) })
	l.sse = &sseReader{r: r, client: readerClient()}
	goWG(func() { l.sse.run(ctx, r.tenants[0].name) })
	goWG(func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.pollMetrics()
			}
		}
	})
	if r.traced {
		goWG(func() { l.samplePending(ctx, r) })
		goWG(func() { l.probe(ctx, r, filepath.Join(dir, "probe.ckpt")) })
	}
	return l
}

func (l *load) stop() {
	l.cancel()
	l.wg.Wait()
}

// waiter is one parked long-poll client: it waits on the hub for the
// version after the one it holds, for as long as the run lasts.
func (r *streamRun) waiter(ctx context.Context, tr *tenantRun, idx int) {
	check := versionCheck{strict: true}
	var v uint64
	if e := tr.hub.Current(); e != nil {
		v = e.Version
	}
	for {
		e, err := tr.hub.WaitMin(ctx, v+1)
		if err != nil {
			if ctx.Err() == nil {
				r.fails.add("waiter: " + err.Error())
			}
			return
		}
		tr.wakes.record(idx, e.Version, r.since(time.Now()), len(e.JSON))
		if check.next(e.Version) != nil {
			r.fails.addCheck("waiter saw a version out of order")
		}
		v = e.Version
	}
}

// samplePending tracks the most tenants with a parked re-solve at once —
// the quantity tm_fleet_resolves_pending exports — sampled every 10 ms.
func (l *load) samplePending(ctx context.Context, r *streamRun) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		n := 0
		for _, tr := range r.tenants {
			if tr.t.Engine().ResolvePending() {
				n++
			}
		}
		l.pendingMax = max(l.pendingMax, n)
	}
}

// probe times, once a second, a scrape of the shared telemetry registry
// and a checkpoint of one tenant (round robin) saved to a scratch file.
func (l *load) probe(ctx context.Context, r *streamRun, path string) {
	defer os.Remove(path)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		t0 := time.Now()
		if _, err := r.reg.WriteTo(io.Discard); err != nil {
			r.fails.add("telemetry scrape: " + err.Error())
		}
		l.scrapeMs.Add(ms(time.Since(t0)))

		tr := r.tenants[k%len(r.tenants)]
		t0 = time.Now()
		if err := stream.SaveCheckpoint(path, tr.t.Engine().Checkpoint()); err != nil {
			r.fails.add("checkpoint probe: " + err.Error())
			continue
		}
		l.ckptMs.Add(ms(time.Since(t0)))
		if fi, err := os.Stat(path); err == nil {
			l.ckptBytes.Add(float64(fi.Size()))
		}
	}
}
