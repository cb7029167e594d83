// Command tmestimate runs one or more traffic-matrix estimation methods
// on a scenario file produced by tmgen and reports their mean relative
// error over the large demands, exactly as the paper scores its methods
// (eq. 8, 90%-of-traffic threshold). Multiple methods run concurrently
// on a bounded worker pool; results print in the order the methods were
// given, whatever the pool size.
//
// Usage:
//
//	tmestimate -scenario europe.json -method entropy -reg 1000
//	tmestimate -scenario america.json -method gravity,entropy,bayes,wcb
//	tmestimate -scenario europe.json -method fanout -window 10 -parallel 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/runner"
)

func main() {
	path := flag.String("scenario", "", "scenario JSON produced by tmgen (required)")
	method := flag.String("method", "entropy",
		"comma-separated estimators: gravity | kruithof | entropy | bayes | bayes-wcb | wcb | fanout | vardi")
	reg := flag.Float64("reg", 1000, "regularization parameter for entropy/bayes")
	window := flag.Int("window", 10, "window length for fanout/vardi (samples)")
	sigmaInv2 := flag.Float64("sigma", 0.01, "sigma^-2 for vardi")
	parallel := flag.Int("parallel", 0, "worker pool size; 0 = GOMAXPROCS, 1 = serial")
	timeout := flag.Duration("timeout", 0, "stop scheduling methods after this long (an in-flight estimator finishes); 0 = no timeout")
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	// Once cancelled, restore default signal handling so a second
	// Ctrl-C kills the process even if an estimator is mid-solve.
	context.AfterFunc(ctx, stop)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, os.Stdout, *path, *method, *reg, *window, *sigmaInv2, *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "tmestimate: %v\n", err)
		os.Exit(1)
	}
}

// estimation is one method's scored result.
type estimation struct {
	est    linalg.Vector
	truth  linalg.Vector
	thresh float64
}

func run(ctx context.Context, w io.Writer, path, methods string, reg float64, window int, sigmaInv2 float64, parallel int) error {
	sc, err := netsim.LoadFile(path)
	if err != nil {
		return err
	}
	truth, inst, thresh, err := sc.Snapshot(50)
	if err != nil {
		return err
	}
	start := sc.BusyWindow(50)

	estimate := func(method string) (estimation, error) {
		out := estimation{truth: truth, thresh: thresh}
		var err error
		switch method {
		case "gravity":
			out.est = core.Gravity(inst)
		case "kruithof":
			out.est, err = core.Kruithof(inst, core.Gravity(inst))
		case "entropy":
			out.est, _, err = core.Entropy(inst, core.Gravity(inst), reg, core.SolveOptions{})
		case "bayes":
			out.est, _, err = core.Bayesian(inst, core.Gravity(inst), reg, core.SolveOptions{})
		case "bayes-wcb":
			var b *core.Bounds
			if b, err = core.WorstCaseBounds(inst); err == nil {
				out.est, _, err = core.Bayesian(inst, b.Midpoint(), reg, core.SolveOptions{})
			}
		case "wcb":
			var b *core.Bounds
			if b, err = core.WorstCaseBounds(inst); err == nil {
				out.est = b.Midpoint()
			}
		case "fanout":
			var fe *core.FanoutEstimate
			loads := sc.LoadSeries(start, window)
			if fe, err = core.EstimateFanouts(sc.Rt, loads, core.SolveOptions{}); err == nil {
				out.est = fe.MeanDemand
				out.truth = sc.Series.MeanDemand(start, window)
				out.thresh = core.ShareThreshold(out.truth, 0.9)
			}
		case "vardi":
			loads := sc.LoadSeries(start, window)
			out.est, _, err = core.Vardi(sc.Rt, loads, core.VardiConfig{SigmaInv2: sigmaInv2}, core.SolveOptions{})
		default:
			return out, fmt.Errorf("unknown method %q", method)
		}
		return out, err
	}

	var jobs []runner.Job[estimation]
	for _, m := range strings.Split(methods, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		m := m
		jobs = append(jobs, runner.Job[estimation]{
			ID: m,
			Run: func(ctx context.Context) (estimation, error) {
				// Estimators are uninterruptible once started, so the
				// best granularity is refusing to start late.
				if err := ctx.Err(); err != nil {
					return estimation{}, err
				}
				return estimate(m)
			},
		})
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no methods given")
	}

	fmt.Fprintf(w, "scenario: %s (%s, %d PoPs, %d demands)\n",
		path, sc.Region, sc.Net.NumPoPs(), sc.Net.NumPairs())
	pool := runner.NewPool(parallel)
	_, err = runner.Run(ctx, pool, jobs, func(res runner.Result[estimation]) error {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		e := res.Value
		fmt.Fprintf(w, "method:   %s (%.1fs)\n", res.ID, res.Duration.Seconds())
		fmt.Fprintf(w, "MRE over demands carrying 90%% of traffic (%d demands): %.4f\n",
			core.CountAbove(e.truth, e.thresh), core.MRE(e.est, e.truth, e.thresh))
		fmt.Fprintf(w, "rank correlation with truth: %.4f\n", core.RankCorrelation(e.est, e.truth))
		return nil
	})
	return err
}
