// Backbone: the paper's headline comparison (Table 2) on both subnetworks —
// gravity and worst-case-bound priors, the regularized estimators on top of
// them, and the time-series methods.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

func main() {
	for _, region := range []string{"europe", "america"} {
		if err := run(region); err != nil {
			log.Fatalf("%s: %v", region, err)
		}
	}
}

func run(region string) error {
	var (
		sc  *netsim.Scenario
		err error
	)
	if region == "europe" {
		sc, err = netsim.BuildEurope(1)
	} else {
		sc, err = netsim.BuildAmerica(1)
	}
	if err != nil {
		return err
	}
	truth, inst, threshold, err := sc.Snapshot(50)
	if err != nil {
		return err
	}
	start := sc.BusyWindow(50)
	score := func(est linalg.Vector) float64 { return core.MRE(est, truth, threshold) }

	fmt.Printf("=== %s: %d PoPs, %d demands, %d interior links ===\n",
		region, sc.Net.NumPoPs(), sc.Net.NumPairs(), sc.Net.InteriorLinks())

	gravity := core.Gravity(inst)
	fmt.Printf("%-28s MRE %.3f\n", "simple gravity prior", score(gravity))

	bounds, err := core.WorstCaseBounds(inst)
	if err != nil {
		return err
	}
	wcb := bounds.Midpoint()
	fmt.Printf("%-28s MRE %.3f\n", "worst-case-bound prior", score(wcb))

	entropy, _, err := core.Entropy(inst, gravity, 1000, core.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s MRE %.3f\n", "entropy w. gravity prior", score(entropy))

	bayes, _, err := core.Bayesian(inst, gravity, 1000, core.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s MRE %.3f\n", "bayes w. gravity prior", score(bayes))

	bayesWCB, _, err := core.Bayesian(inst, wcb, 1000, core.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s MRE %.3f\n", "bayes w. WCB prior", score(bayesWCB))

	fan, err := core.EstimateFanouts(sc.Rt, sc.LoadSeries(start, 20), core.SolveOptions{})
	if err != nil {
		return err
	}
	mean20 := sc.Series.MeanDemand(start, 20)
	fmt.Printf("%-28s MRE %.3f\n", "fanout (window 20)",
		core.MRE(fan.MeanDemand, mean20, core.ShareThreshold(mean20, 0.9)))

	vardi, _, err := core.Vardi(sc.Rt, sc.LoadSeries(start, 50), core.DefaultVardiConfig(), core.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s MRE %.3f\n\n", "vardi (sigma^-2=0.01, K=50)", score(vardi))
	return nil
}
