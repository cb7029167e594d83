package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/linalg"
	"repro/internal/scenario"
	"repro/internal/sparse"
)

// setupRepeats is how many times an untraced pass sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// runConfig is how one workload run is made.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	dir     string // scratch files and the trace
}

// outcome is one workload run's report.
type outcome struct {
	defs      []metricDef // the metrics reported, in order
	metrics   map[string]float64
	correct   bool
	attempted int
	failed    int
	notes     []string
}

// runWorkload makes one run: untraced, the end-to-end metrics; traced, a
// short untraced reference pass (for the tracing overhead) followed by
// the traced pass that yields the per-layer metrics and the trace file.
func runWorkload(ctx context.Context, w workload, rc runConfig) (*outcome, error) {
	if w.stream != nil {
		return runStream(ctx, w, rc)
	}
	return runBatch(ctx, w, rc)
}

// streamPass is one measured pass over a streaming workload.
type streamPass struct {
	stats     *streamStats
	setup     Dist
	attempted int
	fails     *failures
	tenants   []string
}

func runStream(ctx context.Context, w workload, rc runConfig) (*outcome, error) {
	out := &outcome{defs: selectMetrics(streamMetrics, rc.traced)}
	if !rc.traced {
		p, err := passStream(ctx, w.stream, rc, rc.measure, setupRepeats, false)
		if err != nil {
			return nil, err
		}
		p.stats.metrics["setup_s"] = p.setup.Pct(50).Value
		p.stats.metrics["rss_peak_mb"] = rssPeakMB()
		out.fill(p)
		return out, nil
	}
	refLen := rc.measure / 6
	ref, err := passStream(ctx, w.stream, rc, refLen, 1, false)
	if err != nil {
		return nil, err
	}
	p, err := passStream(ctx, w.stream, rc, rc.measure, 1, true)
	if err != nil {
		return nil, err
	}
	m := p.stats.metrics
	// Compare like with like: the traced pass over the same stretch of
	// its run as the shorter untraced reference.
	m["trace.overhead_share"] = 0
	if base := ref.stats.fresh.Pct(50).Value; base > 0 {
		m["trace.overhead_share"] = p.stats.freshnessP50Within(refLen)/base - 1
	}
	in, err := scenario.Build("scaled:100", rc.seed)
	if err != nil {
		return nil, err
	}
	sparseProbe(m, in.Sc.Rt.R)
	out.fill(p)
	out.attempted += ref.attempted
	out.failed += ref.failed()
	out.correct = out.correct && ref.fails.failedChecks() == 0
	return out, writeTrace(filepath.Join(rc.dir, w.name+".trace.json"), w.name, p.tenants, p.stats.samples)
}

// failed counts the pass's failed operations: failures recorded while it
// ran plus the intervals its engines skipped.
func (p *streamPass) failed() int {
	return p.fails.total() + int(p.stats.metrics["stream.skipped_intervals"])
}

func (o *outcome) fill(p *streamPass) {
	o.metrics = p.stats.metrics
	o.attempted += p.attempted
	o.failed += p.failed()
	o.correct = p.fails.failedChecks() == 0
	o.notes = append(o.notes, p.stats.notes...)
	if s := p.fails.String(); s != "" {
		o.notes = append(o.notes, "failures: "+s)
	}
}

// passStream sets a streaming workload up (setups times, keeping the
// last), drives it for warm-up, the measured window and the drain, shuts
// it down and analyses what was recorded.
func passStream(ctx context.Context, spec *streamSpec, rc runConfig, measure time.Duration, setups int, traced bool) (*streamPass, error) {
	p := &streamPass{fails: &failures{}}
	// settle is both the warm-up before the measured window (cold first
	// solves, lazy set-up) and the drain after it, during which the
	// window's last intervals still reach the readers.
	settle := min(time.Second, measure)
	// The generated timelines must outlast the run: generous room for
	// set-up on top of warm-up, window and drain.
	intervals := int((10*time.Second+2*settle+measure)/spec.period) + 1
	var r *streamRun
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		run, err := setupStream(ctx, spec, rc.seed, intervals, traced, rc.dir, p.fails)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setup.Add(time.Since(t0).Seconds())
		if i < setups-1 {
			run.stop()
			// Return the discarded instance's memory, so the peak RSS
			// reflects one instance rather than the set-up churn.
			debug.FreeOSMemory()
			continue
		}
		r = run
	}

	l := r.startLoad(rc.seed, rc.dir)
	w0 := time.Now().Add(settle)
	w1 := w0.Add(measure)
	pw := passWindow{w: window{from: r.since(w0), to: r.since(w1)}}
	sleepCtx(ctx, time.Until(w0))
	cpu0 := cpuTime()
	runtime.ReadMemStats(&pw.mem0)
	sleepCtx(ctx, time.Until(w1))
	pw.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&pw.mem1)
	sleepCtx(ctx, settle)
	l.stop()
	r.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.pollMetrics()

	p.stats = analyze(r, l, pw)
	for _, tr := range r.tenants {
		p.attempted += len(tr.gen)
		p.tenants = append(p.tenants, tr.name)
	}
	p.attempted += len(l.poll.recs) + len(l.sse.recs)
	return p, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// sparseProbe times the routing-matrix kernels every solver iteration
// runs, y = R·x and y = Rᵀ·x, as the median of repeated batches, and
// reports the work one R·x does: 2·nnz flops, and the bytes of values,
// column indices, gathered x entries, row pointers and written y.
func sparseProbe(m map[string]float64, R *sparse.Matrix) {
	x := linalg.NewVector(R.Cols())
	for i := range x {
		x[i] = 1
	}
	y := linalg.NewVector(R.Rows())
	xt := linalg.NewVector(R.Rows())
	for i := range xt {
		xt[i] = 1
	}
	yt := linalg.NewVector(R.Cols())
	m["sparse.mulvec_ns"] = perCallNs(func() { R.MulVec(y, x) })
	m["sparse.mulvect_ns"] = perCallNs(func() { R.MulVecT(yt, xt) })
	nnz := float64(R.NNZ())
	m["sparse.mulvec_flops"] = 2 * nnz
	m["sparse.mulvec_bytes"] = nnz*(8+8+8) + float64(R.Rows()+1)*8 + float64(R.Rows())*8
}

// perCallNs is the median over 7 batches of one call's time, each batch
// sized to take about 20 ms.
func perCallNs(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var d Dist
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d.Add(float64(time.Since(t0).Nanoseconds()) / float64(n))
	}
	return d.Pct(50).Value
}
