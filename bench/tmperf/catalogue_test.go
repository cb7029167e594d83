package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkDef is BENCHMARK.json, decoded strictly: unknown keys fail.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json to the metrics
// the streaming workloads report, in order, and to its own format rules.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkDef
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var streaming []string
	for _, w := range workloads() {
		if w.stream != nil {
			streaming = append(streaming, w.name)
		}
	}
	if len(b.Workloads) != len(streaming) {
		t.Fatalf("BENCHMARK.json lists %d workloads, tmperf has %d streaming ones", len(b.Workloads), len(streaming))
	}
	for i, w := range b.Workloads {
		if w.Name != streaming[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %s with a why of at most 200", i, w.Name, len(w.Why), streaming[i])
		}
	}
	e2e, layer := selectMetrics(streamMetrics, false), selectMetrics(streamMetrics, true)
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the catalogue %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != e2e[i].name || m.Unit != e2e[i].unit || m.Better != e2e[i].better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %+v", i, m.Name, m.Unit, m.Better, e2e[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.PerLayer {
		if m.Name != layer[i].name || m.Unit != layer[i].unit || m.Better != layer[i].better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %+v", i, m.Name, m.Unit, m.Better, layer[i])
		}
	}
	for _, d := range streamMetrics {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("malformed metric %+v", d)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}
