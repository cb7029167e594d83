// Command tmbench regenerates every table and figure of the paper's
// evaluation section on the synthetic scenarios and prints them as text.
// Experiments run concurrently on a bounded worker pool; reports are
// always printed in paper order, so the report content is identical at
// any parallelism level (with -quiet, which drops the wall-clock timing
// lines, the whole output is byte-identical).
//
// -timeout and Ctrl-C cancel between drivers and between sweep
// iterations inside the expensive drivers; an individual solver call
// that is already running finishes before the abort takes effect.
//
// Usage:
//
//	tmbench                 # run everything on all cores
//	tmbench -parallel 1     # fully serial (same reports)
//	tmbench -run fig13      # a single experiment
//	tmbench -run fig10,fig11,table2
//	tmbench -run scale      # scenario lab: 100-PoP scale-out evaluation
//	tmbench -timeout 2m     # stop scheduling work after 2m
//	tmbench -seed 7         # different synthetic universe
//	tmbench -list           # list experiment IDs
//
// The scenario-lab drivers (-list marks everything after the extensions)
// run only when selected explicitly: their reports include wall-clock
// runtimes, so they are excluded from the byte-stable default suite.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tmbench", flag.ExitOnError)
	runIDs := fs.String("run", "", "comma-separated experiment IDs to run (e.g. fig13,table2); empty = all")
	seed := fs.Int64("seed", 1, "scenario seed")
	parallel := fs.Int("parallel", 0, "worker pool size; 0 = GOMAXPROCS, 1 = serial")
	timeout := fs.Duration("timeout", 0, "stop scheduling work after this long (in-flight solver calls finish); 0 = no timeout")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	quiet := fs.Bool("quiet", false, "suppress per-experiment timing lines (byte-stable output)")
	fs.Parse(args)

	if *list {
		for _, d := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", d.ID, d.Title)
		}
		return nil
	}
	drivers, err := selectDrivers(*runIDs)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	// Once cancelled, restore default signal handling so a second
	// Ctrl-C kills the process even if a driver is mid-solve.
	context.AfterFunc(ctx, stop)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	suite, err := experiments.NewSuiteWithPool(*seed, runner.NewPool(*parallel))
	if err != nil {
		return err
	}
	t0 := time.Now()
	results, err := experiments.RunAll(ctx, suite, drivers, func(res experiments.RunResult) error {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		if err := res.Value.Render(os.Stdout); err != nil {
			return fmt.Errorf("render %s: %w", res.ID, err)
		}
		if !*quiet {
			fmt.Printf("(%s took %.1fs)\n\n", res.ID, res.Duration.Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Printf("ran %d experiments in %.1fs (parallel=%d)\n",
			len(results), time.Since(t0).Seconds(), suite.Pool().Workers())
	}
	return nil
}

// selectDrivers resolves the -run selection against the registry,
// preserving the order the IDs were given in.
func selectDrivers(runIDs string) ([]experiments.Driver, error) {
	if runIDs == "" {
		return experiments.AllDrivers(), nil
	}
	var out []experiments.Driver
	for _, id := range strings.Split(runIDs, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		d, ok := experiments.DriverByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return out, nil
}
