package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// batchSpec is the offline workload: scenario.Evaluate of gravity,
// entropy and Vardi with the default budget on one scenario-lab
// instance, repeated for the measured time.
type batchSpec struct{ spec string }

// batchInstances is how many instances have committed reference MREs.
// A run's seed picks one of them, so every seed has a reference.
const batchInstances = 10

// batchSeed maps a run seed onto the instance seeds 1..batchInstances.
func batchSeed(seed int64) int64 {
	return 1 + ((seed-1)%batchInstances+batchInstances)%batchInstances
}

// batchReferenceJSON holds the reference MREs: spec → instance seed →
// method → MRE. Regenerate with
// go test -run TestBatchReference -update-reference.
//
//go:embed batch_reference.json
var batchReferenceJSON []byte

type batchReference map[string]map[string]map[string]float64

func loadBatchReference() (batchReference, error) {
	var ref batchReference
	if err := json.Unmarshal(batchReferenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	return ref, nil
}

func (ref batchReference) lookup(spec string, seed int64, method string) (float64, bool) {
	x, ok := ref[spec][strconv.FormatInt(seed, 10)][method]
	return x, ok
}

// evaluation is one timed scenario.Evaluate call.
type evaluation struct {
	start, end time.Time
	results    []scenario.Result
}

// batchPass is one measured pass of the batch workload.
type batchPass struct {
	setup  Dist
	evals  []evaluation
	cpu    time.Duration
	window time.Duration
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	in     *scenario.Instance
}

// passBatch builds the instance setups times (setup_s is the median) and
// evaluates it until measure has passed, at least once.
func passBatch(ctx context.Context, spec string, seed int64, measure time.Duration, setups int) (*batchPass, error) {
	p := &batchPass{}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		in, err := scenario.Build(spec, seed)
		if err != nil {
			return nil, err
		}
		p.setup.Add(time.Since(t0).Seconds())
		p.in = in
	}
	pool := runner.NewPool(0)
	methods := scenario.Methods(scenario.DefaultBudget())
	instances := []*scenario.Instance{p.in}
	start := time.Now()
	cpu0 := cpuTime()
	runtime.ReadMemStats(&p.mem0)
	for len(p.evals) == 0 || time.Since(start) < measure {
		t0 := time.Now()
		rs, err := scenario.Evaluate(ctx, pool, instances, methods)
		if err != nil {
			return nil, err
		}
		p.evals = append(p.evals, evaluation{start: t0, end: time.Now(), results: rs})
	}
	p.cpu = cpuTime() - cpu0
	p.window = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	return p, nil
}

func runBatch(ctx context.Context, w workload, rc runConfig) (*outcome, error) {
	ref, err := loadBatchReference()
	if err != nil {
		return nil, err
	}
	seed := batchSeed(rc.seed)
	out := &outcome{defs: selectMetrics(batchMetrics, rc.traced), metrics: make(map[string]float64)}
	fails := &failures{}
	setups := setupRepeats
	var refPass *batchPass
	if rc.traced {
		setups = 1
		if refPass, err = passBatch(ctx, w.batch.spec, seed, rc.measure/6, 1); err != nil {
			return nil, err
		}
	}
	p, err := passBatch(ctx, w.batch.spec, seed, rc.measure, setups)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	var wall, cells, untraced Dist
	perMethod := map[string]*Dist{}
	iters := map[string]float64{}
	var samples []sample
	for i, ev := range p.evals {
		total := ev.end.Sub(ev.start)
		wall.Add(total.Seconds())
		at := int64(ev.start.Sub(p.evals[0].start))
		s := sample{interval: i, due: at, end: at + int64(total)}
		var longest time.Duration
		for _, r := range ev.results {
			out.attempted++
			if r.Failed() {
				fails.add(fmt.Sprintf("%s failed: %s", r.Method, r.ErrMessage))
				continue
			}
			if want, ok := ref.lookup(w.batch.spec, seed, r.Method); !ok {
				fails.addCheck(fmt.Sprintf("no reference MRE for %s seed %d %s", w.batch.spec, seed, r.Method))
			} else if !sameMRE(r.MRE, want) {
				fails.addCheck(fmt.Sprintf("%s MRE %.12g, reference %.12g", r.Method, r.MRE, want))
			}
			if i == 0 {
				cells.Add(r.MRE)
			}
			if perMethod[r.Method] == nil {
				perMethod[r.Method] = &Dist{}
			}
			perMethod[r.Method].Add(r.Runtime.Seconds())
			iters[r.Method] = float64(r.Iterations)
			longest = max(longest, r.Runtime)
			// Evaluate starts every cell at once on the pool, so each
			// method's span is placed at the call's start.
			s.spans = append(s.spans, span{name: "core." + r.Method, start: at, end: at + int64(r.Runtime)})
		}
		untraced.Add(max(0, 1-float64(longest)/float64(total)))
		samples = append(samples, s)
	}
	if !rc.traced {
		m["setup_s"] = p.setup.Pct(50).Value
		m["batch_s"] = wall.Pct(50).Value
		m["batch_mre"] = cells.Mean()
		m["cpu_ms_per_interval"] = ms(p.cpu) / float64(len(p.evals)*p.in.Window)
		m["rss_peak_mb"] = rssPeakMB()
	} else {
		for _, name := range []string{"gravity", "entropy", "vardi"} {
			if d := perMethod[name]; d != nil {
				m["core."+name+"_s"] = d.Pct(50).Value
			}
		}
		m["core.entropy_iterations"] = iters["entropy"]
		m["core.vardi_iterations"] = iters["vardi"]
		sparseProbe(m, p.in.Sc.Rt.R)
		runtimeMetrics(m, &p.mem0, &p.mem1, p.window)
		m["trace.samples"] = float64(len(samples))
		m["trace.untraced_share"] = untraced.Pct(50).Value
		var refWall Dist
		for _, ev := range refPass.evals {
			refWall.Add(ev.end.Sub(ev.start).Seconds())
		}
		m["trace.overhead_share"] = wall.Pct(50).Value/refWall.Pct(50).Value - 1
		if err := writeTrace(filepath.Join(rc.dir, w.name+".trace.json"), w.name, []string{p.in.Spec}, samples); err != nil {
			return nil, err
		}
	}
	out.failed = fails.total()
	out.correct = fails.failedChecks() == 0
	if s := fails.String(); s != "" {
		out.notes = append(out.notes, "failures: "+s)
	}
	return out, nil
}
