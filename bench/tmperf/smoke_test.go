package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// smokeSizes shrinks every workload so that the smoke test runs all of
// them, untraced and traced, in a few seconds.
var smokeSizes = map[string]func(w *workload){
	"fleet-steady": func(w *workload) { w.stream.tenants, w.stream.waiters = 2, 4 },
	"fleet-swap":   func(w *workload) { w.stream.tenants, w.stream.waiters = 2, 4 },
	"serve-coord": func(w *workload) {
		w.stream.waiters = 50
		w.stream.tenant = scaledTenant("scaled:20")
	},
	"batch-scale100": func(w *workload) { w.batch.spec = "scaled:20" },
}

// TestSmoke runs every workload through the benchmark's own functions at
// reduced length and size, both passes, and checks that the outputs pass
// their checks and every metric is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	for _, w := range workloads() {
		shrink, ok := smokeSizes[w.name]
		if !ok {
			t.Fatalf("workload %s has no smoke size", w.name)
		}
		shrink(&w)
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, measure: 300 * time.Millisecond, traced: traced, dir: t.TempDir()}
			o, err := runWorkload(context.Background(), w, rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed; notes %q", w.name, traced, o.correct, o.failed, o.attempted, o.notes)
			}
			for _, d := range o.defs {
				v, ok := o.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (reported %v)", w.name, traced, d.name, v, ok)
				}
			}
			key := "freshness_p50_ms"
			if w.batch != nil {
				key = "batch_s"
			}
			if !traced && o.metrics[key] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, key, o.metrics[key])
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(rc.dir, w.name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var trace struct {
					TraceEvents []traceEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
					t.Errorf("%s: trace file: %v, %d events", w.name, err, len(trace.TraceEvents))
				}
			}
		}
	}
}

var updateReference = flag.Bool("update-reference", false, "regenerate batch_reference.json (slow: evaluates every reference instance)")

// TestBatchReference regenerates the committed batch MREs when asked to.
// The smoke test and every batch-scale100 run check against them.
func TestBatchReference(t *testing.T) {
	if !*updateReference {
		t.Skip("run with -update-reference to regenerate batch_reference.json")
	}
	ref := batchReference{}
	pool := runner.NewPool(0)
	methods := scenario.Methods(scenario.DefaultBudget())
	for _, spec := range []string{"scaled:100", "scaled:20"} {
		ref[spec] = map[string]map[string]float64{}
		for seed := int64(1); seed <= batchInstances; seed++ {
			in, err := scenario.Build(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := scenario.Evaluate(context.Background(), pool, []*scenario.Instance{in}, methods)
			if err != nil {
				t.Fatal(err)
			}
			cell := map[string]float64{}
			for _, r := range rs {
				if r.Failed() {
					t.Fatalf("%s seed %d %s: %s", spec, seed, r.Method, r.ErrMessage)
				}
				cell[r.Method] = r.MRE
			}
			ref[spec][strconv.FormatInt(seed, 10)] = cell
		}
	}
	if err := writeJSON("batch_reference.json", ref); err != nil {
		t.Fatal(err)
	}
}
