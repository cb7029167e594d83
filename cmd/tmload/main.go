// Command tmload is the load generator for tmserve's read path: it
// drives a mixed population of snapshot pollers and SSE subscribers
// against a running daemon and reports per-request latency quantiles,
// status mix and error counts, exiting non-zero on any error or a
// breached p99 bound — the shape the CI loadtest job asserts.
//
// Clients arrive over the first quarter of the run following -pattern:
//
//	uniform  evenly spaced arrivals
//	burst    everyone at once (the thundering-herd worst case)
//	ramp     linearly increasing arrival rate (t_i ∝ sqrt(i/n))
//
// A -sse-frac fraction of clients subscribe to /v1/t/{name}/events and
// count version/delta events; the rest poll /v1/t/{name}/snapshot every
// -poll-interval with If-None-Match conditional gets (mostly 304s — the
// cached hot path), and a -delta-frac fraction of those pollers request
// delta responses and verify them by applying each patch to their local
// snapshot, checking the version matches the X-Snapshot-Version header.
// Clients spread round-robin across -tenants.
//
// -url may name a cluster coordinator (tmserve -coordinator): it
// proxies every tenant read to the owning node, so it loads like a
// single daemon.
//
// Usage:
//
//	tmload -url http://127.0.0.1:7080 -clients 200 -duration 10s
//	tmload -pattern burst -sse-frac 0.3 -max-p99 500ms -tenants eu,us
//	tmload -url http://coordinator:7080 -tenants eu,us
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

type config struct {
	url          string
	tenants      string
	clients      int
	duration     time.Duration
	pattern      string
	pollInterval time.Duration
	sseFrac      float64
	deltaFrac    float64
	maxP99       time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "http://127.0.0.1:7080", "base URL of the tmserve daemon under load")
	flag.StringVar(&cfg.tenants, "tenants", "default", "comma-separated tenant names to spread clients across")
	flag.IntVar(&cfg.clients, "clients", 100, "concurrent clients")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to run")
	flag.StringVar(&cfg.pattern, "pattern", "uniform", "client arrival pattern: uniform | burst | ramp")
	flag.DurationVar(&cfg.pollInterval, "poll-interval", 100*time.Millisecond, "pollers: delay between conditional gets")
	flag.Float64Var(&cfg.sseFrac, "sse-frac", 0.25, "fraction of clients subscribing via SSE instead of polling")
	flag.Float64Var(&cfg.deltaFrac, "delta-frac", 0.5, "fraction of pollers requesting and verifying delta responses")
	flag.DurationVar(&cfg.maxP99, "max-p99", 0, "fail (exit 1) when p99 request latency exceeds this; 0 = no bound")
	flag.Parse()
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmload: %v\n", err)
		os.Exit(1)
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "tmload: %d request errors\n", res.Errors)
		os.Exit(1)
	}
	if cfg.maxP99 > 0 && res.Hist.Quantile(0.99) > cfg.maxP99 {
		fmt.Fprintf(os.Stderr, "tmload: p99 %v exceeds bound %v\n", res.Hist.Quantile(0.99), cfg.maxP99)
		os.Exit(1)
	}
}

func (cfg config) validate() error {
	switch cfg.pattern {
	case "uniform", "burst", "ramp":
	default:
		return fmt.Errorf("unknown -pattern %q (uniform, burst or ramp)", cfg.pattern)
	}
	if cfg.clients <= 0 {
		return fmt.Errorf("-clients %d must be positive", cfg.clients)
	}
	if cfg.duration <= 0 {
		return fmt.Errorf("-duration %v must be positive", cfg.duration)
	}
	if cfg.sseFrac < 0 || cfg.sseFrac > 1 {
		return fmt.Errorf("-sse-frac %v out of [0,1]", cfg.sseFrac)
	}
	if cfg.deltaFrac < 0 || cfg.deltaFrac > 1 {
		return fmt.Errorf("-delta-frac %v out of [0,1]", cfg.deltaFrac)
	}
	if strings.TrimSpace(cfg.tenants) == "" {
		return fmt.Errorf("-tenants is empty")
	}
	return nil
}

// arrivalOffsets computes each client's start delay within the arrival
// window. uniform spaces them evenly, burst starts everyone at zero,
// and ramp's linearly growing rate puts client i at window*sqrt(i/n)
// (the cumulative arrival fraction by time t is (t/window)^2).
func arrivalOffsets(pattern string, n int, window time.Duration) []time.Duration {
	offs := make([]time.Duration, n)
	for i := range offs {
		frac := float64(i) / float64(n)
		switch pattern {
		case "burst":
			frac = 0
		case "ramp":
			frac = math.Sqrt(frac)
		}
		offs[i] = time.Duration(frac * float64(window))
	}
	return offs
}

// pick reports whether index i belongs to the `frac` fraction of a
// population, interleaved (not clustered at the front) so arrival
// patterns mix client kinds: it is true when floor((i+1)f) > floor(if).
func pick(i int, frac float64) bool {
	return math.Floor(float64(i+1)*frac) > math.Floor(float64(i)*frac)
}

// Result aggregates one load run.
type Result struct {
	Clients   int
	Requests  uint64 // poller gets (any status) + SSE connects
	OK        uint64 // 200 full snapshots
	NotMod    uint64 // 304s (the conditional-get hot path)
	Deltas    uint64 // 200 delta documents, each verified by local apply
	SSEEvents uint64 // version/delta events received
	Errors    uint64
	ErrorMsgs []string // first few distinct error messages
	Hist      *Hist
}

// run executes one load generation and prints the summary to out.
func run(ctx context.Context, cfg config, out io.Writer) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tenants := strings.Split(cfg.tenants, ",")
	for i := range tenants {
		tenants[i] = strings.TrimSpace(tenants[i])
	}
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.clients + 8}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	offsets := arrivalOffsets(cfg.pattern, cfg.clients, cfg.duration/4)

	results := make([]*clientResult, cfg.clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		results[i] = newClientResult()
		c := &loadClient{
			http:         client,
			base:         cfg.url,
			tenant:       tenants[i%len(tenants)],
			sse:          pick(i, cfg.sseFrac),
			delta:        pick(i, cfg.deltaFrac),
			pollInterval: cfg.pollInterval,
			res:          results[i],
		}
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return
			}
			c.run(ctx)
		}(offsets[i])
	}
	wg.Wait()

	res := &Result{Clients: cfg.clients, Hist: NewHist()}
	seen := map[string]bool{}
	for _, r := range results {
		res.Requests += r.requests
		res.OK += r.ok
		res.NotMod += r.notMod
		res.Deltas += r.deltas
		res.SSEEvents += r.sseEvents
		res.Errors += uint64(len(r.errs))
		for _, msg := range r.errs {
			if !seen[msg] && len(res.ErrorMsgs) < 5 {
				seen[msg] = true
				res.ErrorMsgs = append(res.ErrorMsgs, msg)
			}
		}
		res.Hist.Merge(r.hist)
	}
	fmt.Fprintf(out, "tmload: %d clients (%s arrivals, %.0f%% sse) against %s for %v\n",
		cfg.clients, cfg.pattern, cfg.sseFrac*100, cfg.url, cfg.duration)
	fmt.Fprintf(out, "tmload: %d requests: %d full, %d not-modified, %d delta, %d sse events, %d errors\n",
		res.Requests, res.OK, res.NotMod, res.Deltas, res.SSEEvents, res.Errors)
	fmt.Fprintf(out, "tmload: latency p50=%v p90=%v p99=%v max=%v\n",
		res.Hist.Quantile(0.50), res.Hist.Quantile(0.90), res.Hist.Quantile(0.99), res.Hist.Max())
	for _, msg := range res.ErrorMsgs {
		fmt.Fprintf(out, "tmload: error: %s\n", msg)
	}
	return res, nil
}

// clientResult is one client's private counters, merged after the run
// (no shared atomics on the request path).
type clientResult struct {
	requests, ok, notMod, deltas, sseEvents uint64
	errs                                    []string
	hist                                    *Hist
}

func newClientResult() *clientResult { return &clientResult{hist: NewHist()} }

func (r *clientResult) fail(format string, args ...any) {
	if len(r.errs) < 100 { // bound memory under a persistent failure
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	} else {
		r.errs[99] = fmt.Sprintf(format, args...)
	}
}

type loadClient struct {
	http         *http.Client
	base         string
	tenant       string
	sse          bool
	delta        bool
	pollInterval time.Duration
	res          *clientResult

	// poller state: the last decoded snapshot (delta base) and its ETag.
	snap stream.Snapshot
	etag string
	have bool
}

func (c *loadClient) run(ctx context.Context) {
	if c.sse {
		c.runSSE(ctx)
		return
	}
	for ctx.Err() == nil {
		c.poll(ctx)
		select {
		case <-time.After(c.pollInterval):
		case <-ctx.Done():
			return
		}
	}
}

// poll issues one conditional (and possibly delta) snapshot get.
func (c *loadClient) poll(ctx context.Context) {
	url := fmt.Sprintf("%s/v1/t/%s/snapshot", c.base, c.tenant)
	if c.delta && c.have {
		url += "?since=" + strconv.FormatUint(c.snap.Version, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		c.res.fail("build request: %v", err)
		return
	}
	if c.etag != "" {
		req.Header.Set("If-None-Match", c.etag)
	}
	if c.delta {
		req.Header.Set("Accept", serve.DeltaMediaType+", application/json")
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // the run ended mid-request; not a server error
		}
		c.res.fail("GET %s: %v", url, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.res.hist.Observe(time.Since(t0))
	c.res.requests++
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		c.res.fail("GET %s: read: %v", url, err)
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified:
		c.res.notMod++
		return
	case http.StatusServiceUnavailable:
		return // no snapshot yet: the daemon is warming up, poll again
	default:
		c.res.fail("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), serve.DeltaMediaType) {
		c.applyDelta(url, resp, body)
		return
	}
	var snap stream.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		c.res.fail("GET %s: decode snapshot: %v", url, err)
		return
	}
	c.snap, c.etag, c.have = snap, resp.Header.Get("ETag"), true
	c.res.ok++
}

// applyDelta verifies a delta response by applying each step to the
// client's local snapshot and checking the announced target version.
func (c *loadClient) applyDelta(url string, resp *http.Response, body []byte) {
	var doc serve.DeltaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		c.res.fail("GET %s: decode delta doc: %v", url, err)
		return
	}
	snap := c.snap
	for _, step := range doc.Steps {
		d, err := serve.DecodeDelta(step)
		if err != nil {
			c.res.fail("GET %s: %v", url, err)
			return
		}
		snap, err = serve.Apply(snap, d)
		if err != nil {
			c.res.fail("GET %s: apply delta: %v", url, err)
			return
		}
	}
	if want := resp.Header.Get("X-Snapshot-Version"); want != strconv.FormatUint(snap.Version, 10) {
		c.res.fail("GET %s: delta chain ends at version %d, header says %s", url, snap.Version, want)
		return
	}
	c.snap, c.etag, c.have = snap, resp.Header.Get("ETag"), true
	c.res.deltas++
}

// runSSE subscribes to the tenant's event stream for the rest of the
// run, counting events; the latency sample is time-to-first-event.
func (c *loadClient) runSSE(ctx context.Context) {
	url := fmt.Sprintf("%s/v1/t/%s/events", c.base, c.tenant)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		c.res.fail("build request: %v", err)
		return
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.res.fail("GET %s: %v", url, err)
		}
		return
	}
	defer resp.Body.Close()
	c.res.requests++
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		c.res.fail("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	first := true
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		if first {
			c.res.hist.Observe(time.Since(t0))
			first = false
		}
		c.res.sseEvents++
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		c.res.fail("GET %s: stream: %v", url, err)
	}
}

// Hist is a log-bucketed latency histogram: buckets grow by 25% from a
// 10µs floor, which bounds quantile error to ~12% — plenty for a load
// report — in a few hundred bytes.
type Hist struct {
	counts []uint64
	total  uint64
	max    time.Duration
}

const (
	histBase   = 10 * time.Microsecond
	histGrowth = 1.25
	histSlots  = 80 // histBase * 1.25^79 ≈ 600s, past any sane request
)

// NewHist creates an empty histogram.
func NewHist() *Hist { return &Hist{counts: make([]uint64, histSlots)} }

func histIndex(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histBase)) / math.Log(histGrowth))
	if i >= histSlots {
		return histSlots - 1
	}
	return i
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	h.counts[histIndex(d)]++
	h.total++
	if d > h.max {
		h.max = d
	}
}

// Merge folds another histogram into this one.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// sample (0 when the histogram is empty).
func (h *Hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			upper := float64(histBase) * math.Pow(histGrowth, float64(i+1))
			d := time.Duration(upper)
			if d > h.max {
				d = h.max
			}
			return d
		}
	}
	return h.max
}

// Max returns the largest observed sample.
func (h *Hist) Max() time.Duration { return h.max }
