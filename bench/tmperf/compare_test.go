package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + step*float64(i%5)
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := seq(100, 1, 10) // median 102, IQR 2.5, spread ~0.025
	for _, c := range []struct {
		name        string
		parent      []float64
		change      []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"clear gain, lower is better", parent, seq(90, 1, 10), true, 0.1, verdictBetter},
		{"clear gain, higher is better", parent, seq(110, 1, 10), false, 0.1, verdictBetter},
		{"gain inside the parent's spread", parent, seq(99, 1, 10), true, 0.1, verdictUnchanged},
		{"gain on too few pairs", parent[:9], seq(90, 1, 9), true, 0.1, verdictUnchanged},
		{"wins 8 of 10 pairs", parent, append(seq(90, 1, 8), 200, 200), true, 1, verdictUnchanged},
		{"worse by more than the bound", parent, seq(120, 1, 10), true, 0.1, verdictWorse},
		{"worse within the bound", parent, seq(105, 1, 10), true, 0.1, verdictUnchanged},
		{"noisy parent", []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100}, seq(100, 1, 10), true, 0.1, verdictUnresolved},
		{"noisy parent but every change run better", []float64{150, 160, 170, 180, 190, 200, 210, 220, 230, 240}, []float64{100, 101, 102, 103, 104}, true, 0.1, verdictUnchanged},
		{"per-layer: mirrored rule finds a loss", parent, seq(120, 1, 10), true, -1, verdictWorse},
		{"per-layer: noise is unchanged", parent, seq(101, 1, 10), true, -1, verdictUnchanged},
	} {
		got := judge(c.parent, c.change, c.lowerBetter, c.bound)
		if got.verdict != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.verdict, got, c.want)
		}
	}
}

func TestCompareReadsSetsAndBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, freshness float64) {
		set := resultSet{Seed: int64(i), Seconds: 30, Workloads: map[string]*runResult{
			"fleet-steady": {Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"freshness_p50_ms": {Value: freshness, Unit: "ms"},
			}},
		}}
		d := filepath.Join(dir, side, string(rune('a'+i)))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(d, "results.json"), set); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write("parent", i, 10+0.1*float64(i%3))
		write("change", i, 14+0.1*float64(i%3))
	}
	var out bytes.Buffer
	status := compareSets(filepath.Join(dir, "parent"), filepath.Join(dir, "change"),
		map[string]float64{"freshness_p50_ms": 0.1}, &out)
	if status != 1 || !strings.Contains(out.String(), "freshness_p50_ms") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("status %d, output:\n%s", status, out.String())
	}
}
