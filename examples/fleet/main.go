// Fleet: shard four subnetwork estimation engines behind one process —
// the paper's two backbones plus two scenario-lab instances — with
// every tenant's full re-solves multiplexed onto one shared worker pool
// under round-robin fairness. Each tenant replays its own measurement
// stream, keeps its own sliding window and publishes its own versioned
// snapshots; the fleet only shares compute. The same layer powers
// `tmserve -fleet`, which serves these snapshots over HTTP
// (/v1/tenants, /v1/t/{name}/snapshot) instead of printing them.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
)

func main() {
	const cycles = 8
	specs := []fleet.TenantSpec{
		{Name: "europe", Source: "europe", Method: "entropy"},
		{Name: "america", Source: "america", Method: "vardi"},
		{Name: "lab-40", Source: "scenario:scaled:40", Method: "entropy"},
		{Name: "lab-noisy", Source: "scenario:noisy:europe:0.05", Method: "fanout"},
	}

	f := fleet.New(runner.NewPool(0), fleet.Options{})
	for i := range specs {
		specs[i].Cycles = cycles
		specs[i].Pace = "0"
		specs[i].Window = 4
		specs[i].ResolveEvery = 4
		specs[i].ResolveMaxIter = 4000
		specs[i].ResolveTol = 1e-5
		if _, err := f.Add(specs[i]); err != nil {
			log.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	// Wait until every tenant has consumed its replay and published the
	// re-solve of its final window, then stop the fleet.
	deadline := time.Now().Add(2 * time.Minute)
	for _, t := range f.Tenants() {
		for {
			snap, ok := t.Engine().Latest()
			if ok && snap.Interval == cycles-1 && snap.ResolveInterval == cycles-1 && snap.Resolve != nil {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("tenant %s never quiesced", t.Name())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	<-done

	fmt.Printf("fleet of %d tenants, %d shared re-solve workers\n\n", len(f.Tenants()), f.Pool().Workers())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tenant\tPoPs\tdemands\tmethod\tversion\tgravity MRE\tre-solve MRE\titers")
	for _, t := range f.Tenants() {
		snap, _ := t.Engine().Latest()
		st := t.Status()
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%.3f\t%.3f\t%d\n",
			st.Name, st.PoPs, st.Pairs, snap.ResolveMethod, snap.Version,
			snap.GravityMRE, snap.ResolveMRE, snap.ResolveIterations)
	}
	w.Flush()
}
