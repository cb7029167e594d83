// Collector: run the live measurement pipeline over loopback sockets and
// feed the *collected* (rather than ideal) traffic matrix into estimation —
// the full operational loop of the paper's §5.1: SNMP-style UDP polling,
// rate adjustment, TCP upload to a central store, then tomography on the
// resulting link loads.
package main

import (
	"fmt"
	"log"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/netsim"
)

func main() {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		log.Fatal(err)
	}

	// Collect 6 five-minute intervals at 3000x real time with 2% UDP loss
	// and three distributed pollers.
	d := collector.NewDeployment(sc.Net, sc.Series, collector.DeploymentConfig{
		Pollers:         3,
		DropProb:        0.02,
		MinutesPerMilli: 0.1,
		StepMinutes:     sc.Series.Cfg.StepMinutes,
		Seed:            1,
	})
	const cycles = 6
	if err := d.Run(cycles); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d rate records\n", d.Store.Records())

	// Use the last fully covered interval as "the measured traffic matrix",
	// compute its link loads, and pretend we only had the loads: estimate
	// the matrix back via entropy tomography.
	var bestIv, bestCov int
	for _, iv := range d.Store.Intervals() {
		if _, covered, _ := d.Store.Matrix(iv); covered >= bestCov {
			bestIv, bestCov = iv, covered
		}
	}
	collected, covered, _ := d.Store.Matrix(bestIv)
	fmt.Printf("interval %d: %d/%d LSPs covered by the pollers\n",
		bestIv, covered, sc.Net.NumPairs())

	loads := sc.Rt.LinkLoads(collected)
	inst, err := core.NewInstance(sc.Rt, loads)
	if err != nil {
		log.Fatal(err)
	}
	estimate, _, err := core.Entropy(inst, core.Gravity(inst), 1000, core.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Score against the true generating demands of that interval: the
	// residual error combines collection noise and tomography error.
	truth := sc.Series.Demands[bestIv]
	threshold := core.ShareThreshold(truth, 0.9)
	fmt.Printf("estimation MRE vs ground truth:        %.3f\n",
		core.MRE(estimate, truth, threshold))
	fmt.Printf("collection-only MRE (no tomography):   %.3f\n",
		core.MRE(collected, truth, threshold))
}
