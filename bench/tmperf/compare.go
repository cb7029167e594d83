package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest alternating parent/change pairs a gain can be
// claimed on, and winShare the share of them the change must win.
const (
	minPairs = 10
	winShare = 0.9
)

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judgement is the comparison of one (workload, metric) pair.
type judgement struct {
	verdict      string
	parentMedian float64
	changeMedian float64
	parentSpread float64 // parent IQR over its median
	wins, pairs  int
}

// judge compares the parent's and the change's runs of one metric, run i
// of each forming pair i. lowerBetter gives the metric's direction;
// bound is the share of the parent median it may worsen by, and a
// negative bound means the metric has none (a per-layer metric).
//
// better: at least minPairs pairs, the change wins at least winShare of
// them (ties count for neither side), and the medians differ in the
// change's favour by more than the parent's interquartile range.
// worse: with a bound, the change's median is worse by more than bound ×
// the parent's median; without one, the mirror image of better.
// unresolved: the parent's own spread exceeds the bound, so "unchanged"
// cannot be told apart from noise — unless every change run reads
// better than every parent run.
func judge(parent, change []float64, lowerBetter bool, bound float64) judgement {
	n := min(len(parent), len(change))
	j := judgement{pairs: n}
	q1, medP, q3 := Quartiles(parent)
	_, medC, _ := Quartiles(change)
	j.parentMedian, j.changeMedian = medP, medC
	iqr := q3 - q1
	j.parentSpread = iqr / math.Abs(medP)
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	losses := 0
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			j.wins++
		case d < 0:
			losses++
		}
	}
	gain := sign * (medC - medP) // positive: the change is better
	needed := int(math.Ceil(winShare * float64(n)))
	switch {
	case n >= minPairs && j.wins >= needed && gain > iqr:
		j.verdict = verdictBetter
	case bound < 0 && n >= minPairs && losses >= needed && -gain > iqr:
		j.verdict = verdictWorse
	case bound >= 0 && -gain > bound*math.Abs(medP):
		j.verdict = verdictWorse
	case bound >= 0 && j.parentSpread > bound && !allBetter(parent, change, sign):
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// benchmarkFile is the part of BENCHMARK.json a comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSets reads every results.json under dir, in path order: set i of
// the parent pairs with set i of the change.
func loadSets(dir string) ([]resultSet, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == "results.json" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results.json under %s", dir)
	}
	sort.Strings(paths)
	sets := make([]resultSet, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return sets, nil
}

// series collects one metric of one workload across sets.
func series(sets []resultSet, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		if r := s.Workloads[workload]; r != nil {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// benchmarkPath is the benchmark definition compare reads its bounds
// from, relative to the repository root it runs in.
const benchmarkPath = "BENCHMARK.json"

// compareMain is `tmperf compare A/ B/`. It exits 1 when any pair is
// worse.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tmperf compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmperf compare:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "tmperf compare:", benchmarkPath+":", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	return compareSets(args[0], args[1], bounds, stdout)
}

// compareSets prints a verdict for every (workload, metric) pair the
// result sets under the two directories share, judging the metrics in
// bounds against their bound and every other metric by the pair rule
// alone. It returns 1 when any pair is worse.
func compareSets(parentDir, changeDir string, bounds map[string]float64, stdout io.Writer) int {
	parent, err := loadSets(parentDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmperf compare:", err)
		return 1
	}
	change, err := loadSets(changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmperf compare:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tverdict\tparent median\tchange median\tparent spread\tbound\twins/pairs")
	status := 0
	for _, w := range workloads() {
		for _, d := range streamMetrics {
			p, c := series(parent, w.name, d.name), series(change, w.name, d.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			bound, ok := bounds[d.name]
			if !ok {
				bound = -1
			}
			j := judge(p, c, d.better == "lower", bound)
			if j.verdict == verdictWorse {
				status = 1
			}
			boundText := "-"
			if bound >= 0 {
				boundText = formatValue(bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f\t%s\t%d/%d\n", w.name, d.name, j.verdict,
				j.parentMedian, j.changeMedian, j.parentSpread, boundText, j.wins, j.pairs)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return status
}
