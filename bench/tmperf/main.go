// Command tmperf is the end-to-end benchmark of the live traffic-matrix
// pipeline: collector → stream → fleet → solver → serve → cluster,
// driven in-process through the packages' public APIs with load it
// generates itself from a seed. Its headline number is freshness, the
// time from an interval's scheduled close until a parked reader holds
// the estimate reflecting it; every layer on that path gets its own
// per-layer metrics from a traced pass. See bench/README.md.
//
// Usage:
//
//	tmperf [-seed N] [-out DIR]
//	    run both passes of every workload BENCHMARK.json lists, each
//	    pass in a child process; print one "workload metric value unit"
//	    line per metric and write DIR/results.json
//	tmperf -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	    run one pass of one workload (batch-scale100 runs only this
//	    way); the last line of standard output is a JSON object
//	    {correct, attempted, failed, metrics}
//	tmperf compare A/ B/
//	    compare the result sets under A/ (parent) and B/ (change) against
//	    the bounds in ./BENCHMARK.json
//
// -seconds is the length of each pass's measured window. BENCHMARK.json's
// command is run with -seconds set to its run_seconds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workloadName := flag.String("workload", "", "run one pass of this workload (default: both passes of every listed workload, each in its own process)")
	seed := flag.Int64("seed", 1, "seed the workloads' inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the measured window of each pass, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 for the untraced pass (end-to-end metrics), 1 for the traced pass (per-layer metrics and the trace file)")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for results, trace files and scratch files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tmperf:", err)
		os.Exit(1)
	}
	if *workloadName == "" {
		os.Exit(orchestrate(ctx, *seed, *seconds, *out))
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tmperf: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: *out}
	o, err := runWorkload(ctx, w, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "tmperf: %s: %s\n", w.name, n)
	}
	res := o.result()
	for _, d := range o.defs {
		fmt.Printf("%s %s %s %s\n", w.name, d.name, formatValue(o.metrics[d.name]), d.unit)
	}
	line, err := json.Marshal(res)
	if err == nil {
		err = writeJSON(filepath.Join(*out, w.name+passSuffix(rc.traced)), res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

// runResult is the JSON object one pass ends its output with.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) result() runResult {
	res := runResult{Correct: o.correct, Attempted: max(o.attempted, 1), Failed: o.failed,
		Metrics: make(map[string]metricValue, len(o.defs))}
	for _, d := range o.defs {
		res.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	return res
}

func passSuffix(traced bool) string {
	if traced {
		return ".layers.json"
	}
	return ".e2e.json"
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is one results.json: every workload's passes of one seed,
// merged.
type resultSet struct {
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Workloads map[string]*runResult `json:"workloads"`
}

// orchestrate runs both passes of every streaming workload in its own
// child process, one after another, so each has the machine and its own
// peak RSS to itself.
func orchestrate(ctx context.Context, seed int64, seconds int, dir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmperf:", err)
		return 1
	}
	set := resultSet{Seed: seed, Seconds: seconds, Workloads: map[string]*runResult{}}
	status := 0
	for _, w := range workloads() {
		if w.stream == nil {
			continue
		}
		merged := &runResult{Correct: true, Metrics: map[string]metricValue{}}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", dir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			res, perr := lastJSONLine(stdout)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "tmperf: %s -trace %s: %v (%v)\n", w.name, trace, perr, err)
				status = 1
				merged.Correct = false
				continue
			}
			if err != nil || !res.Correct {
				status = 1
			}
			merged.Correct = merged.Correct && res.Correct
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			for k, v := range res.Metrics {
				merged.Metrics[k] = v
			}
		}
		set.Workloads[w.name] = merged
		for _, d := range streamMetrics {
			if v, ok := merged.Metrics[d.name]; ok {
				fmt.Printf("%s %s %s %s\n", w.name, d.name, formatValue(v.Value), v.Unit)
			}
		}
		share := float64(merged.Failed) / float64(max(merged.Attempted, 1))
		fmt.Printf("%s failed_share %s ratio\n", w.name, formatValue(share))
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), set); err != nil {
		fmt.Fprintln(os.Stderr, "tmperf:", err)
		return 1
	}
	return status
}

// lastJSONLine decodes the result object a pass prints last.
func lastJSONLine(out []byte) (*runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if len(last) == 0 {
		return nil, fmt.Errorf("no result line")
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
