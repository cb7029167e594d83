// Command benchdiff gates benchmark regressions in CI: it parses the
// text output of `go test -bench` and compares each benchmark's ns/op
// against one JSON baseline (BENCH_baseline.json at the repo root,
// written by `make bench-baseline`), failing when any benchmark slowed
// down by more than the allowed factor. Benchmarks absent from the
// baseline are reported as new and pass (their numbers enter the next
// baseline); git history keeps the trajectory.
//
// A benchmark printed more than once (`go test -count N`) is gated on
// the median of its lines, ns/op and allocs/op alike, so a single run
// the machine slowed down neither fails the gate nor hides a real
// regression the other runs show. Each median is printed with the
// [min..max] of its lines, which shows the run's noise.
//
// Benchmarks whose baseline is below the -min-ns noise floor (default
// 1 ms) are reported but not gated: a 100-microsecond benchmark measured
// for one iteration jitters past any sane factor.
//
// When the input was produced with -benchmem, each benchmark's allocs/op
// is additionally gated at -alloc-factor (default 2x) against the
// baseline's allocs_per_op — allocation counts are deterministic where
// wall-clock is noisy, so this catches a pooled hot path quietly losing
// its buffer reuse. Baselines under -min-allocs (default 100) are shown
// but not alloc-gated.
//
// Usage:
//
//	go test -bench Scale -benchtime 1x -count 3 -run '^$' . | tee bench.out
//	go run ./cmd/benchdiff -factor 2 -baseline BENCH_baseline.json bench.out
//
// Reading from stdin (pipe directly):
//
//	go test -bench Scale -benchtime 1x -run '^$' . | go run ./cmd/benchdiff -baseline BENCH_baseline.json -
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// baselineEntry mirrors the schema written by `make bench-baseline`.
type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLineRe matches e.g. "BenchmarkScaleEntropy100-8   1   2049837 ns/op".
var benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocsRe picks the -benchmem allocation count off a benchmark line,
// e.g. "... 407988 B/op  613 allocs/op". Absent without -benchmem.
var allocsRe = regexp.MustCompile(`\s([0-9.]+) allocs/op`)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var baseline string
	fs.Func("baseline", "baseline JSON file (exactly one)", func(v string) error {
		if baseline != "" {
			return fmt.Errorf("only one -baseline file is allowed")
		}
		baseline = v
		return nil
	})
	factor := fs.Float64("factor", 2.0, "maximum allowed ns/op slowdown factor vs baseline")
	minNs := fs.Float64("min-ns", 1e6, "noise floor: benchmarks whose baseline ns/op is below this are reported but not gated (single-iteration microbenchmarks jitter past any factor)")
	allocFactor := fs.Float64("alloc-factor", 2.0, "maximum allowed allocs/op growth factor vs baseline (gated only when the input was run with -benchmem)")
	minAllocs := fs.Float64("min-allocs", 100, "noise floor: benchmarks whose baseline allocs/op is below this are not alloc-gated (a handful of allocations doubles on scheduler whim)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if baseline == "" {
		return fmt.Errorf("a -baseline file is required")
	}
	if *factor <= 1 {
		return fmt.Errorf("-factor must exceed 1, got %v", *factor)
	}
	if *allocFactor <= 1 {
		return fmt.Errorf("-alloc-factor must exceed 1, got %v", *allocFactor)
	}

	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base map[string]baselineEntry
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baseline, err)
	}

	in := os.Stdin
	if n := fs.NArg(); n > 1 {
		return fmt.Errorf("at most one input file, got %d", n)
	} else if n == 1 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	// Collect every line first: `go test -count N` prints each benchmark
	// N times, and the gate compares the median of its lines, so one
	// sample the machine slowed down cannot fail it alone.
	samples := make(map[string]*sample)
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		smp := samples[name]
		if smp == nil {
			smp = new(sample)
			samples[name] = smp
			order = append(order, name)
		}
		smp.ns = append(smp.ns, ns)
		if am := allocsRe.FindStringSubmatch(sc.Text()); am != nil {
			allocs, err := strconv.ParseFloat(am[1], 64)
			if err != nil {
				return fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			smp.allocs = append(smp.allocs, allocs)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	var failures, compared, fresh int
	for _, name := range order {
		smp := samples[name]
		cur := median(smp.ns)
		runs := ""
		if len(smp.ns) > 1 {
			runs = fmt.Sprintf("  (median of %d)", len(smp.ns))
		}
		b, ok := base[name]
		if !ok || b.NsPerOp <= 0 {
			fresh++
			fmt.Fprintf(out, "NEW   %-50s %14.0f ns/op%s (no baseline)%s\n", name, cur, spread(smp.ns), runs)
			continue
		}
		compared++
		ratio := cur / b.NsPerOp
		status := "ok"
		switch {
		case b.NsPerOp < *minNs:
			status = "fast" // below the noise floor: informational only
		case ratio > *factor:
			status = "FAIL"
		}
		line := fmt.Sprintf("%-50s %14.0f ns/op%s  baseline %14.0f  (%.2fx)",
			name, cur, spread(smp.ns), b.NsPerOp, ratio)
		// Allocation gate: only when the input lines carry -benchmem
		// counts and the baseline has a count above the alloc noise floor.
		if len(smp.allocs) > 0 && b.AllocsPerOp > 0 {
			curAllocs := median(smp.allocs)
			aRatio := curAllocs / b.AllocsPerOp
			line += fmt.Sprintf("  %8.0f allocs/op%s  baseline %8.0f  (%.2fx)", curAllocs, spread(smp.allocs), b.AllocsPerOp, aRatio)
			if b.AllocsPerOp >= *minAllocs && aRatio > *allocFactor {
				status = "FAIL"
			}
		}
		if status == "FAIL" {
			failures++
		}
		fmt.Fprintf(out, "%-5s %s%s\n", status, line, runs)
	}
	if compared+fresh == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	fmt.Fprintf(out, "compared %d benchmarks (%d new) against %s, threshold %.2gx\n",
		compared, fresh, baseline, *factor)
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.2gx", failures, *factor)
	}
	return nil
}

// sample is every line one benchmark printed: its ns/op values and, with
// -benchmem, its allocs/op values.
type sample struct {
	ns, allocs []float64
}

// spread formats the min..max of a benchmark's samples, shown beside
// their median so that a row near the factor reads as noise or as a
// change without a rerun; one sample has none.
func spread(v []float64) string {
	if len(v) < 2 {
		return ""
	}
	return fmt.Sprintf(" [%.0f..%.0f]", slices.Min(v), slices.Max(v))
}

// median returns the middle value of v (the mean of the two middle
// values for an even count); v is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
