package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/te"
	"repro/internal/topology"
)

// ExtDrivers returns the extension experiments — the open questions the
// paper's §6 lists as future work, built on the same scenarios.
func ExtDrivers() []Driver {
	return []Driver{
		{"ext1", "Measurement-noise sensitivity of the regularized estimators", (*Suite).Ext1NoiseSensitivity},
		{"ext2", "Methods the paper cites but does not evaluate (Vaton, Cao)", (*Suite).Ext2UnevaluatedMethods},
		{"ext3", "ECMP routing-model mismatch", (*Suite).Ext3ECMPMismatch},
		{"ext4", "Traffic-engineering decisions from estimated matrices", (*Suite).Ext4TrafficEngineering},
	}
}

// AllDrivers returns the paper experiments followed by the extensions.
func AllDrivers() []Driver {
	return append(Drivers(), ExtDrivers()...)
}

// Ext1NoiseSensitivity sweeps multiplicative SNMP measurement noise over
// the link loads and reports the entropy estimator's MRE. The paper's data
// set is noise-free by construction (§5.1.4) and §6 lists measurement
// errors as unexplored.
func (s *Suite) Ext1NoiseSensitivity(ctx context.Context) (*Report, error) {
	r := &Report{ID: "ext1", Title: "Entropy MRE vs relative measurement noise (reg=1000)"}
	noises := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.10}
	r.addf("%-8s %s", "noise:", fmt.Sprint(noises))
	for _, reg := range s.regions() {
		reg := reg
		prior := core.Gravity(reg.inst)
		row := make([]float64, len(noises))
		err := s.forEach(ctx, len(noises), func(i int) error {
			loads := netsim.PerturbLoads(reg.inst.Loads, noises[i], int64(1000+i))
			inst, err := core.NewInstance(reg.sc.Rt, loads)
			if err != nil {
				return err
			}
			est, _, err := core.Entropy(inst, prior, 1000, core.SolveOptions{})
			if err != nil {
				return err
			}
			row[i] = core.MRE(est, reg.truth, reg.thresh)
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
	r.addf("(noise in the loads degrades the estimate gracefully; the regularized")
	r.addf(" objective absorbs inconsistency that hard-constrained methods cannot)")
	return r, nil
}

// Ext2UnevaluatedMethods runs the two methods the paper cites but does not
// benchmark: Vaton & Gravey's iterative Bayesian prior refinement and the
// Cao et al. scaling-law moment matching (named in §6 as the missing
// comparison).
func (s *Suite) Ext2UnevaluatedMethods(ctx context.Context) (*Report, error) {
	r := &Report{ID: "ext2", Title: "Iterative Bayesian (Vaton) and scaling-law tomography (Cao)"}
	for _, reg := range s.regions() {
		prior := core.Gravity(reg.inst)
		base, _, err := core.Bayesian(reg.inst, prior, 1000, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		iter, rounds, err := core.IterativeBayesian(reg.inst, prior, core.DefaultIterativeBayesianConfig())
		if err != nil {
			return nil, err
		}
		caoCfg := core.DefaultCaoConfig()
		caoCfg.Phi = reg.sc.Series.Cfg.Phi
		caoCfg.C = reg.sc.Series.Cfg.C
		loads := reg.sc.LoadSeries(reg.start, BusyWindowSamples)
		cao, err := core.Cao(reg.sc.Rt, loads, caoCfg)
		if err != nil {
			return nil, err
		}
		vardi, _, err := core.Vardi(reg.sc.Rt, loads, core.DefaultVardiConfig(), core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		r.addf("%-8s one-shot Bayes %.3f | iterative Bayes %.3f (%d rounds) | Cao %.3f | Vardi %.3f",
			reg.name,
			core.MRE(base, reg.truth, reg.thresh),
			core.MRE(iter, reg.truth, reg.thresh), rounds,
			core.MRE(cao, reg.truth, reg.thresh),
			core.MRE(vardi, reg.truth, reg.thresh))
	}
	r.addf("(iterative refinement reproduces the one-shot result on consistent data;")
	r.addf(" both second-moment methods — Cao's scaling law no less than Vardi's")
	r.addf(" strict Poisson — founder on covariance estimation from 50 samples,")
	r.addf(" extending the paper's Fig. 12 diagnosis to the method it left unevaluated)")
	return r, nil
}

// Ext3ECMPMismatch evaluates what happens when the network actually splits
// traffic over equal-cost multipaths but the estimator assumes the
// single-path routing matrix, and how much repair using the correct
// fractional matrix provides (eq. 1's fractional generalization).
func (s *Suite) Ext3ECMPMismatch(ctx context.Context) (*Report, error) {
	r := &Report{ID: "ext3", Title: "ECMP mismatch: estimating with the wrong routing model"}
	for _, reg := range s.regions() {
		// Coarse IGP weights (operators assign small integers) create the
		// equal-cost ties that make ECMP actually split traffic.
		coarse := topology.QuantizeMetrics(reg.sc.Net, 150)
		single, err := coarse.Route()
		if err != nil {
			return nil, err
		}
		ecmp, err := coarse.RouteECMP()
		if err != nil {
			return nil, err
		}
		// Count demands that are actually split.
		split := 0
		for p := 0; p < coarse.NumPairs(); p++ {
			for _, l := range coarse.Links {
				if l.Kind != topology.Interior {
					continue
				}
				if v := ecmp.R.At(l.ID, p); v > 1e-9 && v < 1-1e-9 {
					split++
					break
				}
			}
		}
		trueLoads := ecmp.LinkLoads(reg.truth)
		instTrue, err := core.NewInstance(ecmp, trueLoads)
		if err != nil {
			return nil, err
		}
		prior := core.Gravity(instTrue)

		// Estimator believes single-path routing.
		instWrong, err := core.NewInstance(single, trueLoads)
		if err != nil {
			return nil, err
		}
		wrong, _, err := core.Entropy(instWrong, prior, 1000, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		// Estimator knows the fractional ECMP matrix.
		right, _, err := core.Entropy(instTrue, prior, 1000, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		r.addf("%-8s %d/%d demands ECMP-split | single-path model MRE %.3f | fractional model MRE %.3f",
			reg.name, split, coarse.NumPairs(),
			core.MRE(wrong, reg.truth, reg.thresh),
			core.MRE(right, reg.truth, reg.thresh))
	}
	r.addf("(the single-path assumption misattributes split traffic; the fractional")
	r.addf(" routing matrix of eq. 1 repairs it)")
	return r, nil
}

// Ext4TrafficEngineering closes the loop the paper's introduction opens:
// how wrong do traffic-engineering decisions get when they are based on
// each method's estimated matrix instead of the truth.
func (s *Suite) Ext4TrafficEngineering(ctx context.Context) (*Report, error) {
	r := &Report{ID: "ext4", Title: "TE decisions from estimated matrices (hot set k=10)"}
	for _, reg := range s.regions() {
		prior := core.Gravity(reg.inst)
		entropy, _, err := core.Entropy(reg.inst, prior, 1000, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		bounds, err := core.WorstCaseBounds(reg.inst)
		if err != nil {
			return nil, err
		}
		r.addf("%s:", reg.name)
		for _, m := range []struct {
			name string
			est  []float64
		}{
			{"gravity", prior},
			{"entropy", entropy},
			{"wcb-mid", bounds.Midpoint()},
		} {
			rep := te.CompareDecisions(reg.sc.Rt, reg.truth, m.est, 10)
			r.addf("  %-8s %s", m.name, rep.String())
		}
	}
	r.addf("(estimated matrices reproduce link-level TE views far better than their")
	r.addf(" demand-level MREs suggest — consistency with the measured loads is")
	r.addf(" exactly what TE consumes, cf. the paper's motivation in §1 and §5.3.1)")
	return r, nil
}
