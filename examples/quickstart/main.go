// Quickstart: build the European backbone scenario, estimate its traffic
// matrix from link loads with the entropy (tomogravity) method, and score
// the estimate the way the paper does.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netsim"
)

func main() {
	// 1. A synthetic stand-in for the paper's measured data set: the
	//    12-PoP European subnetwork with a calibrated 24-hour demand series.
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d PoPs, %d demands, %d interior links\n",
		sc.Net.NumPoPs(), sc.Net.NumPairs(), sc.Net.InteriorLinks())

	// 2. The busy-hour snapshot: true demands (ground truth) and the link
	//    loads t = R·s an operator would actually measure via SNMP.
	truth, inst, threshold, err := sc.Snapshot(50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("busy-hour total traffic: %.0f Mbps\n", inst.TotalTraffic())

	// 3. A gravity prior from the access-link loads only, then the
	//    entropy-regularized estimate (eq. 6 of the paper).
	prior := core.Gravity(inst)
	estimate, _, err := core.Entropy(inst, prior, 1000, core.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Score with the paper's MRE (eq. 8) over the demands that carry
	//    90% of the traffic.
	fmt.Printf("gravity prior MRE:   %.3f\n", core.MRE(prior, truth, threshold))
	fmt.Printf("entropy estimate MRE: %.3f\n", core.MRE(estimate, truth, threshold))
	fmt.Printf("rank correlation:     %.3f\n", core.RankCorrelation(estimate, truth))
}
