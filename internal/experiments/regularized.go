package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
)

// RegSweep is the regularization-parameter grid of Figures 13 and 15.
var RegSweep = []float64{1e-5, 1e-3, 1e-1, 1, 1e1, 1e3, 1e5}

// Fig13RegularizationSweep reproduces Figure 13: MRE of the Bayesian and
// Entropy estimators (gravity prior) as a function of the regularization
// parameter, for both networks. Small values reduce to the prior; large
// values trust the measurements and perform best on consistent data.
func (s *Suite) Fig13RegularizationSweep(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig13", Title: "Bayesian/Entropy MRE vs regularization parameter (gravity prior)"}
	r.addf("%-18s %s", "reg:", fmtRegRow())
	for _, reg := range s.regions() {
		reg := reg
		prior := core.Gravity(reg.inst)
		// Both estimators at every regularization value, fanned out over
		// the pool; each (lam, method) cell has its own slot.
		bayMRE := make([]float64, len(RegSweep))
		entMRE := make([]float64, len(RegSweep))
		err := s.forEach(ctx, 2*len(RegSweep), func(i int) error {
			lam := RegSweep[i/2]
			if i%2 == 0 {
				eb, _, err := core.Bayesian(reg.inst, prior, lam, core.SolveOptions{})
				if err != nil {
					return err
				}
				bayMRE[i/2] = core.MRE(eb, reg.truth, reg.thresh)
				return nil
			}
			ee, _, err := core.Entropy(reg.inst, prior, lam, core.SolveOptions{})
			if err != nil {
				return err
			}
			entMRE[i/2] = core.MRE(ee, reg.truth, reg.thresh)
			return nil
		})
		if err != nil {
			return nil, err
		}
		bay := fmt.Sprintf("%-8s Bayesian", reg.name)
		ent := fmt.Sprintf("%-8s Entropy ", reg.name)
		for i := range RegSweep {
			bay += fmt.Sprintf(" %6.3f", bayMRE[i])
			ent += fmt.Sprintf(" %6.3f", entMRE[i])
		}
		r.Lines = append(r.Lines, bay, ent)
		r.addf("%-8s gravity prior MRE %.3f", reg.name, core.MRE(prior, reg.truth, reg.thresh))
	}
	r.addf("(paper: best results at large regularization; no single best method)")
	return r, nil
}

func fmtRegRow() string {
	out := ""
	for _, l := range RegSweep {
		out += fmt.Sprintf(" %6.0e", l)
	}
	return out
}

// Fig14RegularizedScatter reproduces Figure 14: Bayesian and Entropy
// estimates against the true demands for the American network at
// regularization 1000 — the setting that produced the paper's best result.
func (s *Suite) Fig14RegularizedScatter(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig14", Title: "Regularized estimates vs actual demands (America, reg=1000)"}
	reg := s.regions()[1]
	prior := core.Gravity(reg.inst)
	eb, _, err := core.Bayesian(reg.inst, prior, 1000, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	ee, _, err := core.Entropy(reg.inst, prior, 1000, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	r.addf("Bayesian: %s", scatterStats(eb, reg.truth, reg.thresh))
	r.addf("Entropy:  %s", scatterStats(ee, reg.truth, reg.thresh))
	r.addf("(paper: both capture the demands across the whole spectrum)")
	return r, nil
}

// Fig15PriorComparison reproduces Figure 15: Bayesian MRE under the gravity
// prior versus the worst-case-bound midpoint prior across the
// regularization sweep. The WCB prior wins at small regularization; the two
// coincide at large regularization.
func (s *Suite) Fig15PriorComparison(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig15", Title: "Bayesian MRE: gravity prior vs WCB prior"}
	r.addf("%-18s %s", "reg:", fmtRegRow())
	for _, reg := range s.regions() {
		reg := reg
		b, err := core.WorstCaseBounds(reg.inst)
		if err != nil {
			return nil, err
		}
		priors := []struct {
			name string
			v    linalg.Vector
		}{
			{"Gravity", core.Gravity(reg.inst)},
			{"WCB", b.Midpoint()},
		}
		// Flatten the prior × regularization grid into one fan-out.
		mres := make([]float64, len(priors)*len(RegSweep))
		err = s.forEach(ctx, len(mres), func(i int) error {
			pr, lam := priors[i/len(RegSweep)], RegSweep[i%len(RegSweep)]
			est, _, err := core.Bayesian(reg.inst, pr.v, lam, core.SolveOptions{})
			if err != nil {
				return err
			}
			mres[i] = core.MRE(est, reg.truth, reg.thresh)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for pi, pr := range priors {
			line := fmt.Sprintf("%-8s %-8s", reg.name, pr.name)
			for li := range RegSweep {
				line += fmt.Sprintf(" %6.3f", mres[pi*len(RegSweep)+li])
			}
			r.Lines = append(r.Lines, line)
		}
	}
	r.addf("(paper: WCB prior clearly better at small reg, equal at large reg)")
	return r, nil
}

// Fig16DirectMeasurement reproduces Figure 16 and the §5.3.6 discussion:
// the MRE of the Entropy method as demands are measured directly one at a
// time — greedily (exhaustive search, as in the paper) and by measuring the
// largest demands first (the practical strategy).
func (s *Suite) Fig16DirectMeasurement(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig16", Title: "Entropy MRE vs number of directly measured demands"}
	steps := map[string]int{"Europe": 12, "America": 17}
	for _, reg := range s.regions() {
		prior := core.Gravity(reg.inst)
		greedy, _, err := core.DirectMeasurementCurve(
			reg.inst, reg.truth, prior, 1000, reg.thresh, steps[reg.name], core.GreedyMRE)
		if err != nil {
			return nil, err
		}
		largest, _, err := core.DirectMeasurementCurve(
			reg.inst, reg.truth, prior, 1000, reg.thresh, steps[reg.name], core.LargestDemand)
		if err != nil {
			return nil, err
		}
		r.addf("%s greedy:  %s", reg.name, fmtCurve(greedy))
		r.addf("%s largest: %s", reg.name, fmtCurve(largest))
	}
	r.addf("(paper: 6 greedy measurements take Europe from 11%% to <1%%; largest-first needs more)")
	return r, nil
}

func fmtCurve(c []float64) string {
	out := ""
	for _, v := range c {
		out += fmt.Sprintf(" %5.3f", v)
	}
	return out
}

// Table2Summary reproduces Table 2: the best MRE of every method on both
// subnetworks.
func (s *Suite) Table2Summary(ctx context.Context) (*Report, error) {
	r := &Report{ID: "table2", Title: "Best MRE of all methods (paper values in parentheses)"}
	paper := map[string][2]string{
		"Worst-case bound prior": {"0.10", "0.39"},
		"Simple gravity prior":   {"0.26", "0.78"},
		"Entropy w. gravity":     {"0.11", "0.22"},
		"Bayes w. gravity":       {"0.08", "0.25"},
		"Bayes w. WCB prior":     {"0.07", "0.23"},
		"Fanout":                 {"0.22", "0.40"},
		"Vardi":                  {"0.47", "0.98"},
	}
	rows := []string{
		"Worst-case bound prior", "Simple gravity prior", "Entropy w. gravity",
		"Bayes w. gravity", "Bayes w. WCB prior", "Fanout", "Vardi",
	}
	results := map[string][2]float64{}
	for i, reg := range s.regions() {
		prior := core.Gravity(reg.inst)
		b, err := core.WorstCaseBounds(reg.inst)
		if err != nil {
			return nil, err
		}
		wcb := b.Midpoint()
		set := func(name string, v float64) {
			cur := results[name]
			cur[i] = v
			results[name] = cur
		}
		set("Worst-case bound prior", core.MRE(wcb, reg.truth, reg.thresh))
		set("Simple gravity prior", core.MRE(prior, reg.truth, reg.thresh))
		set("Entropy w. gravity", s.bestOverSweep(ctx, func(lam float64) (linalg.Vector, int, error) {
			return core.Entropy(reg.inst, prior, lam, core.SolveOptions{})
		}, reg))
		set("Bayes w. gravity", s.bestOverSweep(ctx, func(lam float64) (linalg.Vector, int, error) {
			return core.Bayesian(reg.inst, prior, lam, core.SolveOptions{})
		}, reg))
		set("Bayes w. WCB prior", s.bestOverSweep(ctx, func(lam float64) (linalg.Vector, int, error) {
			return core.Bayesian(reg.inst, wcb, lam, core.SolveOptions{})
		}, reg))
		// Fanout: best over a few window lengths.
		fanWindows := []int{3, 10, 20, 40}
		fanMRE := make([]float64, len(fanWindows))
		err = s.forEach(ctx, len(fanWindows), func(i int) error {
			k := fanWindows[i]
			loads := reg.sc.LoadSeries(reg.start, k)
			est, err := core.EstimateFanouts(reg.sc.Rt, loads, core.SolveOptions{})
			if err != nil {
				return err
			}
			mean := reg.sc.Series.MeanDemand(reg.start, k)
			fanMRE[i] = core.MRE(est.MeanDemand, mean, core.ShareThreshold(mean, 0.9))
			return nil
		})
		if err != nil {
			return nil, err
		}
		bestFan := math.Inf(1)
		for _, m := range fanMRE {
			if m < bestFan {
				bestFan = m
			}
		}
		set("Fanout", bestFan)
		// Vardi: best of the two σ⁻² settings of Table 1.
		sigmas := []float64{0.01, 1}
		vardiMRE := make([]float64, len(sigmas))
		err = s.forEach(ctx, len(sigmas), func(i int) error {
			loads := reg.sc.LoadSeries(reg.start, BusyWindowSamples)
			lam, _, err := core.Vardi(reg.sc.Rt, loads, core.VardiConfig{SigmaInv2: sigmas[i]}, core.SolveOptions{})
			if err != nil {
				return err
			}
			vardiMRE[i] = core.MRE(lam, reg.truth, reg.thresh)
			return nil
		})
		if err != nil {
			return nil, err
		}
		bestVardi := math.Inf(1)
		for _, m := range vardiMRE {
			if m < bestVardi {
				bestVardi = m
			}
		}
		set("Vardi", bestVardi)
	}
	r.addf("%-24s %16s %16s", "method", "Europe", "America")
	for _, name := range rows {
		v := results[name]
		p := paper[name]
		r.addf("%-24s %6.3f (%s) %8.3f (%s)", name, v[0], p[0], v[1], p[1])
	}
	return r, nil
}

// bestOverSweep returns the best MRE over the regularization sweep,
// evaluating the sweep points concurrently on the suite's pool. Failed
// sweep points are skipped, as in the serial loop it replaces.
func (s *Suite) bestOverSweep(ctx context.Context, est func(float64) (linalg.Vector, int, error), reg region) float64 {
	mres := make([]float64, len(RegSweep))
	for i := range mres {
		mres[i] = math.Inf(1)
	}
	s.forEach(ctx, len(RegSweep), func(i int) error {
		v, _, err := est(RegSweep[i])
		if err != nil {
			return nil // skip failed sweep points
		}
		mres[i] = core.MRE(v, reg.truth, reg.thresh)
		return nil
	})
	best := math.Inf(1)
	for _, m := range mres {
		if m < best {
			best = m
		}
	}
	return best
}
