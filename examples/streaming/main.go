// Streaming: run the continuous estimation engine over a replayed
// collection and watch the traffic matrix evolve — the online counterpart
// of the batch experiments. Every 5-minute interval the engine folds the
// newly collected rates into its sliding window and refreshes the cheap
// incremental gravity estimate (eq. 5); every third interval it parks a
// full entropy re-solve (eq. 6), which this program — the engine's host —
// runs on a goroutine of its own, the way the tmserve daemon's fleet runs
// every tenant's re-solves on a shared pool. tmserve serves these
// snapshots over HTTP/JSON instead of printing them.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
	"repro/internal/stream"
)

func main() {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		log.Fatal(err)
	}

	// The engine parks each scheduled re-solve (a newer window replaces
	// one not yet started) and calls ResolveDispatch; the host runs it.
	// Its default window, 6 intervals, is half an hour of 5-minute
	// intervals.
	parked := make(chan struct{}, 1)
	engine, err := stream.New(sc.Rt, stream.Config{
		ResolveEvery: 3,
		Method:       stream.MethodEntropy,
		Reg:          1000,
		ResolveDispatch: func() {
			select {
			case parked <- struct{}{}:
			default: // a wake-up is already pending
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A store fed by a deterministic replay stands in for the live
	// UDP/TCP deployment (swap in collector.NewDeployment for sockets).
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = engine.Run(ctx, store)
		close(parked) // Run has returned, so nothing parks anymore
	}()
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		for range parked {
			engine.TryResolve(ctx)
		}
	}()

	// Pace the replay so each 5-minute interval takes 50 ms of wall time;
	// with pace 0 the whole day lands at once and the version waits below
	// would skip straight to the final snapshot.
	const cycles = 12
	replayDone := make(chan error, 1)
	go func() { replayDone <- collector.Replay(ctx, store, sc.Series, cycles, 50*time.Millisecond) }()

	// Follow the evolving matrix with the versioned snapshot API: wait
	// for each publication in turn and print how the estimates track the
	// collected (directly measured) window mean.
	fmt.Printf("%-8s %-9s %-7s %-12s %s\n", "version", "interval", "window", "gravity MRE", "entropy re-solve")
	for v := uint64(1); ; v++ {
		snap, err := engine.WaitVersion(ctx, v)
		if err != nil {
			log.Fatal(err)
		}
		v = snap.Version
		resolve := "-"
		if snap.Resolve != nil {
			start := "cold"
			if snap.ResolveWarm {
				start = "warm" // started from the previous published estimate
			}
			resolve = fmt.Sprintf("MRE %.3f @ interval %d (%.0f ms, %d iters, %s)",
				snap.ResolveMRE, snap.ResolveInterval, snap.ResolveDuration.Seconds()*1000,
				snap.ResolveIterations, start)
		}
		fmt.Printf("%-8d %-9d %-7d %-12.3f %s\n", snap.Version, snap.Interval, snap.Window, snap.GravityMRE, resolve)
		if snap.Interval == cycles-1 && snap.Resolve != nil {
			break
		}
	}
	if err := <-replayDone; err != nil {
		log.Fatal(err)
	}
	cancel()
	<-hostDone

	final, _ := engine.Latest()
	fmt.Printf("\nfinal snapshot v%d: %d demands over a %d-interval window, "+
		"gravity MRE %.3f vs the collected mean, entropy MRE %.3f\n",
		final.Version, len(final.Gravity), final.Window, final.GravityMRE, final.ResolveMRE)
}
