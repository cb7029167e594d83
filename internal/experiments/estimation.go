package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/traffic"
)

// scatterStats summarizes an estimate-vs-truth scatter plot in numbers:
// MRE over the large demands, rank correlation over all demands, and the
// worst relative error among the large demands.
func scatterStats(est, truth linalg.Vector, thresh float64) string {
	mre := core.MRE(est, truth, thresh)
	rho := core.RankCorrelation(est, truth)
	worst := 0.0
	for i, v := range truth {
		if v > thresh {
			rel := (est[i] - v) / v
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	return fmt.Sprintf("MRE=%.3f  rank-corr=%.3f  worst-rel-err=%.2f", mre, rho, worst)
}

// Fig07GravityScatter reproduces Figure 7: simple gravity estimates versus
// the actual demands. Reasonable in Europe, poor in America because of
// dominant per-source destinations.
func (s *Suite) Fig07GravityScatter(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig7", Title: "Gravity model vs actual demands"}
	for _, reg := range s.regions() {
		g := core.Gravity(reg.inst)
		r.addf("%-8s %s", reg.name, scatterStats(g, reg.truth, reg.thresh))
	}
	r.addf("(paper: gravity MRE 0.26 Europe / 0.78 America)")
	return r, nil
}

// Fig08WorstCaseBounds reproduces Figure 8: per-demand LP bounds over
// {s >= 0 : Rs = t}. Most bounds are non-trivial but relatively loose.
func (s *Suite) Fig08WorstCaseBounds(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig8", Title: "Worst-case bounds on demands"}
	for _, reg := range s.regions() {
		b, err := core.WorstCaseBounds(reg.inst)
		if err != nil {
			return nil, err
		}
		var tightLo, tightHi, exact int
		var relWidth float64
		var counted int
		for p, v := range reg.truth {
			if b.Lower[p] > 1e-6 {
				tightLo++
			}
			if b.Upper[p] < reg.truth.Sum()/2 {
				tightHi++
			}
			if b.Upper[p]-b.Lower[p] < 1e-6*(1+v) {
				exact++
			}
			if v > reg.thresh {
				relWidth += (b.Upper[p] - b.Lower[p]) / v
				counted++
			}
		}
		r.addf("%-8s lower>0: %d/%d  nontrivial upper: %d/%d  measured exactly: %d  mean rel width (large demands): %.2f  pivots: %d",
			reg.name, tightLo, len(reg.truth), tightHi, len(reg.truth), exact,
			relWidth/float64(counted), b.Pivots)
	}
	r.addf("(paper: most bounds non-trivial, only very few demands pinned exactly)")
	return r, nil
}

// Fig09WCBPrior reproduces Figure 9: the midpoint of the worst-case bounds
// as a demand estimate ("WCB prior"), which the paper found surprisingly
// accurate.
func (s *Suite) Fig09WCBPrior(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig9", Title: "Priors obtained from worst-case bounds (midpoints)"}
	for _, reg := range s.regions() {
		b, err := core.WorstCaseBounds(reg.inst)
		if err != nil {
			return nil, err
		}
		r.addf("%-8s %s", reg.name, scatterStats(b.Midpoint(), reg.truth, reg.thresh))
	}
	r.addf("(paper Table 2: WCB prior MRE 0.10 Europe / 0.39 America)")
	return r, nil
}

// Fig10FanoutWindows reproduces Figure 10: fanout-based estimates against
// the window-average demands for window lengths 1, 3 and 10 (America).
func (s *Suite) Fig10FanoutWindows(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig10", Title: "Fanout estimation scatter vs window length (America)"}
	reg := s.regions()[1]
	windows := []int{1, 3, 10}
	rows := make([]string, len(windows))
	err := s.forEach(ctx, len(windows), func(i int) error {
		k := windows[i]
		loads := reg.sc.LoadSeries(reg.start, k)
		est, err := core.EstimateFanouts(reg.sc.Rt, loads, core.SolveOptions{})
		if err != nil {
			return err
		}
		mean := reg.sc.Series.MeanDemand(reg.start, k)
		rows[i] = fmt.Sprintf("window %2d: %s", k, scatterStats(est.MeanDemand, mean, core.ShareThreshold(mean, 0.9)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, rows...)
	return r, nil
}

// Fig11FanoutMRE reproduces Figure 11: fanout-estimation MRE as a function
// of the window length for both networks. The error drops for short
// time-series and then levels out.
func (s *Suite) Fig11FanoutMRE(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig11", Title: "Fanout MRE vs window length"}
	windows := []int{1, 2, 3, 5, 10, 20, 30, 40}
	r.addf("%-8s %s", "window:", fmt.Sprint(windows))
	for _, reg := range s.regions() {
		reg := reg
		row := make([]float64, len(windows))
		err := s.forEach(ctx, len(windows), func(i int) error {
			k := windows[i]
			loads := reg.sc.LoadSeries(reg.start, k)
			est, err := core.EstimateFanouts(reg.sc.Rt, loads, core.SolveOptions{})
			if err != nil {
				return err
			}
			mean := reg.sc.Series.MeanDemand(reg.start, k)
			row[i] = core.MRE(est.MeanDemand, mean, core.ShareThreshold(mean, 0.9))
			return nil
		})
		if err != nil {
			return nil, err
		}
		line := reg.name
		for _, m := range row {
			line += fmt.Sprintf(" %6.3f", m)
		}
		r.Lines = append(r.Lines, line)
	}
	r.addf("(paper: error decreases for short series, levels out for longer windows)")
	return r, nil
}

// Table1Vardi reproduces Table 1: Vardi-method MRE over the busy period
// (K=50) for σ⁻² = 0.01 and σ⁻² = 1 on both networks.
func (s *Suite) Table1Vardi(ctx context.Context) (*Report, error) {
	r := &Report{ID: "table1", Title: "Vardi MRE, K=50 (paper: EU 0.47/302, US 0.98/1183)"}
	r.addf("%-14s %10s %10s", "", "Europe", "America")
	sigmas := []float64{0.01, 1}
	regions := s.regions()
	// Flatten the sigma × region grid so all four Vardi solves can run
	// at once.
	cells := make([]string, len(sigmas)*len(regions))
	err := s.forEach(ctx, len(cells), func(i int) error {
		sig, reg := sigmas[i/len(regions)], regions[i%len(regions)]
		loads := reg.sc.LoadSeries(reg.start, BusyWindowSamples)
		lam, _, err := core.Vardi(reg.sc.Rt, loads, core.VardiConfig{SigmaInv2: sig}, core.SolveOptions{})
		if err != nil {
			return err
		}
		cells[i] = fmt.Sprintf("%10.2f", core.MRE(lam, reg.truth, reg.thresh))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, sig := range sigmas {
		r.addf("sigma^-2=%-5g %s %s", sig, cells[si*len(regions)], cells[si*len(regions)+1])
	}
	return r, nil
}

// Fig12VardiSynthetic reproduces Figure 12: MRE of the Vardi method
// (σ⁻² = 1) as a function of the window size on synthetic traffic whose
// elements are truly Poisson — isolating the covariance-estimation error
// that the paper blames for Vardi's poor showing.
func (s *Suite) Fig12VardiSynthetic(ctx context.Context) (*Report, error) {
	r := &Report{ID: "fig12", Title: "Vardi MRE vs window size, synthetic Poisson traffic (sigma^-2=1)"}
	windows := []int{20, 50, 100, 200, 400, 800}
	r.addf("%-8s %s", "window:", fmt.Sprint(windows))
	for _, reg := range s.regions() {
		reg := reg
		// Poisson demands with the busy-period means, scaled down so the
		// relative Poisson noise is material (as it is at packet scale).
		mean := reg.truth.Clone()
		mean.Scale(0.01)
		th := core.ShareThreshold(mean, 0.9)
		row := make([]float64, len(windows))
		err := s.forEach(ctx, len(windows), func(i int) error {
			k := windows[i]
			demands := traffic.SyntheticPoisson(mean, k, 99)
			loads := make([]linalg.Vector, k)
			for j := range demands {
				loads[j] = reg.sc.Rt.LinkLoads(demands[j])
			}
			lam, _, err := core.Vardi(reg.sc.Rt, loads, core.VardiConfig{SigmaInv2: 1}, core.SolveOptions{})
			if err != nil {
				return err
			}
			row[i] = core.MRE(lam, mean, th)
			return nil
		})
		if err != nil {
			return nil, err
		}
		line := reg.name
		for _, m := range row {
			line += fmt.Sprintf(" %6.3f", m)
		}
		r.Lines = append(r.Lines, line)
	}
	r.addf("(paper: even under a true Poisson model, ~100+ samples are needed for <20%% error)")
	return r, nil
}
