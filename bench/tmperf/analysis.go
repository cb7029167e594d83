package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/stream"
)

// window is the measured part of a run, in ns since the run's base.
type window struct{ from, to int64 }

func (w window) has(t int64) bool { return t >= w.from && t < w.to }

// span is one layer's part of a freshness sample.
type span struct {
	name       string
	start, end int64 // ns since base
}

// sample is one freshness measurement: an interval's due time to the
// moment the last parked waiter held an entry reflecting it.
type sample struct {
	tenant   int
	interval int
	due, end int64
	spans    []span
}

func (s sample) freshness() float64 { return ms(time.Duration(s.end - s.due)) }

// untraced is the share of the sample no span covers.
func (s sample) untraced() float64 {
	var covered int64
	for _, sp := range s.spans {
		covered += sp.end - sp.start
	}
	total := s.end - s.due
	if total <= 0 {
		return 0
	}
	return math.Max(0, 1-float64(covered)/float64(total))
}

// chainSpans lays stages end to end from start: stage k runs from the
// boundary before it to its own. A stage with an unobserved boundary
// (negative) is dropped together with its successor, leaving a gap that
// shows up as untraced time. Boundaries are clamped into [start, end] so
// clock skew between observation points cannot produce negative spans.
func chainSpans(start, end int64, names []string, bounds []int64) []span {
	var out []span
	prev := start
	for k, name := range names {
		b := bounds[k]
		if b < 0 {
			prev = -1
			continue
		}
		b = max(min(b, end), start)
		if prev >= 0 {
			b = max(b, prev)
			out = append(out, span{name: name, start: prev, end: b})
		}
		prev = b
	}
	return out
}

// publication kinds in an engine's metric history.
type resolvePub struct {
	version  uint64
	interval int // the re-solved window's newest interval
	at       int64
	iters    int
	warm     bool
	mre      float64
}

// tenantView indexes one tenant's recordings for analysis.
type tenantView struct {
	idx       int
	tr        *tenantRun
	byVersion map[uint64]stream.MetricPoint
	pub       map[uint64]int64 // version -> publication time
	ingestPub map[int]int64    // interval -> publication of its ingest
	ingestMRE map[int]float64  // interval -> gravity MRE at its ingest
	resolves  []resolvePub
	swaps     []int64 // publications that moved to a new topology epoch
	delivered []uint64
	wakes     map[uint64]wake
}

func newTenantView(r *streamRun, idx int) *tenantView {
	tr := r.tenants[idx]
	v := &tenantView{idx: idx, tr: tr,
		byVersion: make(map[uint64]stream.MetricPoint, len(tr.points)),
		pub:       make(map[uint64]int64, len(tr.points)),
		ingestPub: make(map[int]int64), ingestMRE: make(map[int]float64),
		wakes: tr.wakes.merged(),
	}
	var prev *stream.MetricPoint
	for i := range tr.points {
		p := &tr.points[i]
		at := r.since(p.Time)
		v.byVersion[p.Version] = *p
		v.pub[p.Version] = at
		switch {
		case prev == nil || p.Interval != prev.Interval:
			v.ingestPub[p.Interval] = at
			v.ingestMRE[p.Interval] = p.GravityMRE
			if prev != nil && p.TopologyEpoch != prev.TopologyEpoch {
				v.swaps = append(v.swaps, at)
			}
		case p.HasResolve && (!prev.HasResolve || p.ResolveInterval != prev.ResolveInterval):
			v.resolves = append(v.resolves, resolvePub{version: p.Version, interval: p.ResolveInterval,
				at: at, iters: p.ResolveIterations, warm: p.ResolveWarm, mre: p.ResolveMRE})
		}
		prev = p
	}
	for ver := range v.wakes {
		if _, ok := v.byVersion[ver]; ok {
			v.delivered = append(v.delivered, ver)
		}
	}
	sort.Slice(v.delivered, func(i, j int) bool { return v.delivered[i] < v.delivered[j] })
	return v
}

// reflecting returns the first delivered version that reflects interval
// i: for re-solving tenants the first carrying a re-solve of a window
// ending at or after i, otherwise the first whose window includes i.
func (v *tenantView) reflecting(resolving bool, i int) (uint64, bool) {
	k := sort.Search(len(v.delivered), func(k int) bool {
		p := v.byVersion[v.delivered[k]]
		if resolving {
			return p.HasResolve && p.ResolveInterval >= i
		}
		return p.Interval >= i
	})
	if k == len(v.delivered) {
		return 0, false
	}
	return v.delivered[k], true
}

func (v *tenantView) observed(ver uint64) int64 {
	v.tr.obsMu.Lock()
	defer v.tr.obsMu.Unlock()
	if at, ok := v.tr.obs[ver]; ok {
		return at
	}
	return -1
}

func (v *tenantView) resolveStart(rp resolvePub) int64 {
	v.tr.obsMu.Lock()
	d, ok := v.tr.resolveDur[rp.interval]
	v.tr.obsMu.Unlock()
	if !ok {
		return -1
	}
	return rp.at - int64(d)
}

// streamStats is everything one pass measured.
type streamStats struct {
	metrics map[string]float64
	window  window
	samples []sample
	fresh   Dist
	read    Dist
	notes   []string
}

// passWindow carries the process measurements taken at the window edges.
type passWindow struct {
	w          window
	cpu        time.Duration // process CPU inside the window
	mem0, mem1 runtime.MemStats
}

// analyze turns one pass's recordings into metrics and freshness samples.
func analyze(r *streamRun, l *load, pw passWindow) *streamStats {
	st := &streamStats{metrics: make(map[string]float64), window: pw.w}
	m := st.metrics
	w := pw.w
	resolving := r.spec.resolveEvery > 0
	var (
		late, ingest, consume, queue, solve, observe, fanout, bytes Dist
		mre                                                         Dist
		iters, warm, postSwap                                       Dist
		intervals, published, slots                                 int
		swaps, skipped                                              int
	)
	for idx := range r.tenants {
		v := newTenantView(r, idx)
		tenantIntervals := 0
		for i, g := range v.tr.gen {
			if !w.has(g.due) {
				continue
			}
			tenantIntervals++
			late.Add(ms(time.Duration(g.start - g.due)))
			ingest.Add(float64(g.end-g.start) / 1e3)
			if at, ok := v.ingestPub[i]; ok {
				consume.Add(ms(time.Duration(at - g.end)))
			}
			if !resolving {
				if x, ok := v.ingestMRE[i]; ok {
					mre.Add(x)
				}
				st.addSample(r, v, i, g, resolvePub{}, false)
			}
		}
		intervals += tenantIntervals
		if resolving {
			slots += tenantIntervals / r.spec.resolveEvery
		}
		for _, rp := range v.resolves {
			if rp.interval >= len(v.tr.gen) || !w.has(v.tr.gen[rp.interval].due) {
				continue
			}
			published++
			mre.Add(rp.mre)
			iters.Add(float64(rp.iters))
			if rp.warm {
				warm.Add(1)
			} else {
				warm.Add(0)
			}
			if start := v.resolveStart(rp); start >= 0 {
				solve.Add(ms(time.Duration(rp.at - start)))
				if at, ok := v.ingestPub[rp.interval]; ok {
					queue.Add(ms(time.Duration(start - at)))
				}
			}
			st.addSample(r, v, rp.interval, v.tr.gen[rp.interval], rp, true)
		}
		for _, at := range v.swaps {
			if !w.has(at) {
				continue
			}
			swaps++
			for _, rp := range v.resolves {
				if rp.at > at {
					postSwap.Add(float64(rp.iters))
					break
				}
			}
		}
		if n := len(v.tr.points); n > 0 {
			skipped += v.tr.points[n-1].Skipped
		}
		for _, ver := range v.delivered {
			if !w.has(v.pub[ver]) {
				continue
			}
			wk := v.wakes[ver]
			bytes.Add(float64(wk.bytes))
			if at := v.observed(ver); at >= 0 {
				observe.Add(ms(time.Duration(at - v.pub[ver])))
				fanout.Add(ms(time.Duration(wk.last - at)))
			}
		}
	}
	for _, s := range st.samples {
		st.fresh.Add(s.freshness())
	}

	// End to end.
	f50, f99 := st.fresh.Pct(50), st.fresh.Pct(99)
	m["freshness_p50_ms"], m["freshness_p99_ms"] = f50.Value, f99.Value
	st.noteTail("freshness_p99_ms", f99)
	m["cpu_ms_per_interval"] = ratio(ms(pw.cpu), float64(intervals))
	m["estimate_mre"] = mre.Mean()

	// Generator and collector.
	m["gen.intervals"] = float64(intervals)
	lateP99 := late.Pct(99)
	m["gen.late_p99_ms"] = lateP99.Value
	// A generator this late was starved by the machine, not by the
	// pipeline: the run's timings are not comparable, but its outputs
	// are still checked, so it is flagged rather than failed.
	if limit := ms(r.spec.period) / 2; lateP99.Value > limit {
		st.notes = append(st.notes, "INVALID RUN: gen.late_p99_ms is above half the period, so the generator missed its schedule")
	}
	m["collector.ingest_us_per_interval"] = ingest.Mean()

	// Stream.
	m["stream.consume_ms_p50"], m["stream.consume_ms_p99"] = consume.Pct(50).Value, consume.Pct(99).Value
	m["stream.skipped_intervals"] = float64(skipped)
	m["stream.swaps"] = float64(swaps)
	m["stream.post_swap_iterations_mean"] = postSwap.Mean()
	m["stream.checkpoint_bytes"] = l.ckptBytes.Mean()
	m["stream.checkpoint_ms_p50"] = l.ckptMs.Pct(50).Value

	// Fleet and solver.
	m["fleet.queue_wait_ms_p50"], m["fleet.queue_wait_ms_p99"] = queue.Pct(50).Value, queue.Pct(99).Value
	if slots > 0 {
		m["fleet.superseded_share"] = math.Max(0, 1-float64(published)/float64(slots))
	} else {
		m["fleet.superseded_share"] = 0 // gravity only: nothing to supersede
	}
	m["fleet.resolves_per_interval"] = ratio(float64(published), float64(intervals))
	m["fleet.pending_max"] = float64(l.pendingMax)
	m["solver.resolve_ms_p50"], m["solver.resolve_ms_p99"] = solve.Pct(50).Value, solve.Pct(99).Value
	m["solver.iterations_mean"] = iters.Mean()
	m["solver.warm_share"] = warm.Mean()

	// Serve.
	m["serve.observe_ms_p50"], m["serve.observe_ms_p99"] = observe.Pct(50).Value, observe.Pct(99).Value
	m["serve.encode_fanout_ms_p50"], m["serve.encode_fanout_ms_p99"] = fanout.Pct(50).Value, fanout.Pct(99).Value
	m["serve.body_bytes_mean"] = bytes.Mean()
	var shed, dropped uint64
	for _, tr := range r.tenants {
		hs := tr.hub.Stats()
		shed += hs.ShedWaiters
		dropped += hs.DroppedSubscribers
	}
	m["serve.shed_waiters"], m["serve.dropped_subscribers"] = float64(shed), float64(dropped)

	st.analyzeReads(r, l, w)

	// Telemetry and the Go runtime.
	m["obs.scrape_ms_p50"] = l.scrapeMs.Pct(50).Value
	runtimeMetrics(m, &pw.mem0, &pw.mem1, time.Duration(w.to-w.from))

	var untraced Dist
	for _, s := range st.samples {
		untraced.Add(s.untraced())
	}
	m["trace.samples"] = float64(len(st.samples))
	m["trace.untraced_share"] = untraced.Pct(50).Value
	return st
}

// freshnessP50Within is the median freshness of the samples due in the
// first d of the window, for comparing passes of different lengths.
func (st *streamStats) freshnessP50Within(d time.Duration) float64 {
	var fresh Dist
	for _, s := range st.samples {
		if s.due < st.window.from+int64(d) {
			fresh.Add(s.freshness())
		}
	}
	return fresh.Pct(50).Value
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeMetrics reports the Go runtime's garbage-collection work
// between two memory-statistics reads taken d apart.
func runtimeMetrics(m map[string]float64, mem0, mem1 *runtime.MemStats, d time.Duration) {
	m["goruntime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["goruntime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["goruntime.alloc_mb_per_s"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / d.Seconds()
}

// addSample records the freshness of interval i of one tenant, with its
// spans when the pass is traced. A re-solving tenant's sample ends at the
// first delivery carrying rp; a gravity-only tenant's at the first
// delivery including interval i.
func (st *streamStats) addSample(r *streamRun, v *tenantView, i int, g genRec, rp resolvePub, resolving bool) {
	ver, ok := v.reflecting(resolving, i)
	if !ok {
		r.fails.add("no parked waiter received an entry reflecting a published interval")
		return
	}
	s := sample{tenant: v.idx, interval: i, due: g.due, end: v.wakes[ver].last}
	if r.traced {
		ingestAt, ok := v.ingestPub[i]
		if !ok {
			ingestAt = -1
		}
		names := []string{"gen.late", "collector.ingest", "stream.consume"}
		bounds := []int64{g.start, g.end, ingestAt}
		if resolving {
			start := v.resolveStart(rp)
			names = append(names, "fleet.queue", "solver.resolve")
			bounds = append(bounds, start, rp.at)
		}
		names = append(names, "serve.observe", "serve.encode_fanout")
		bounds = append(bounds, v.observed(ver), s.end)
		s.spans = chainSpans(s.due, s.end, names, bounds)
	}
	st.samples = append(st.samples, s)
}

// analyzeReads derives the HTTP, SSE and coordinator metrics.
func (st *streamStats) analyzeReads(r *streamRun, l *load, w window) {
	m := st.metrics
	var (
		byKind                     [3]Dist
		upstream, hop, bytes, sse  Dist
		reads, notMod, condOrDelta int
		asked, fellBack            int
	)
	for _, p := range l.poll.recs {
		if !w.has(p.due) {
			continue
		}
		reads++
		// A failed read misses every latency limit: it counts as taking
		// the whole window.
		lat := ms(time.Duration(w.to - w.from))
		if p.ok {
			lat = ms(p.latency)
			bytes.Add(float64(p.bytes))
		}
		st.read.Add(lat)
		byKind[p.kind].Add(lat)
		if p.kind != readFull {
			condOrDelta++
			if p.notMod {
				notMod++
			}
		}
		if p.askedDelta && p.ok && !p.notMod {
			asked++
			if p.fellBack {
				fellBack++
			}
		}
		if p.hasNode {
			upstream.Add(ms(p.node))
			hop.Add(ms(p.service - p.node))
		}
	}
	r50, r99 := st.read.Pct(50), st.read.Pct(99)
	m["read_p50_ms"], m["read_p99_ms"] = r50.Value, r99.Value
	st.noteTail("read_p99_ms", r99)
	m["http.reads"] = float64(reads)
	for k, name := range readKinds {
		m["http."+name+"_ms_p50"], m["http."+name+"_ms_p99"] = byKind[k].Pct(50).Value, byKind[k].Pct(99).Value
	}
	for _, e := range l.sse.recs {
		if w.has(e.at) {
			sse.Add(ms(e.deliver))
		}
	}
	m["http.sse_deliver_ms_p50"] = sse.Pct(50).Value
	m["http.bytes_per_read"] = bytes.Mean()
	m["serve.not_modified_share"] = ratio(float64(notMod), float64(condOrDelta))
	m["serve.delta_fallback_share"] = ratio(float64(fellBack), float64(asked))
	m["cluster.upstream_ms_p50"], m["cluster.upstream_ms_p99"] = upstream.Pct(50).Value, upstream.Pct(99).Value
	m["cluster.hop_ms_p50"] = hop.Pct(50).Value
}

// noteTail records when a tail percentile rests on too few samples.
func (st *streamStats) noteTail(name string, p Pct) {
	if !p.Supported() {
		st.notes = append(st.notes, fmt.Sprintf("%s rests on %d samples with %d beyond it (fewer than %d)",
			name, p.N, p.Beyond, minTail))
	}
}
