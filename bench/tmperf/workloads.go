package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/timeline"
	"repro/internal/topology"
)

// workload is one set of inputs the benchmark runs. Exactly one of
// stream and batch is set. The streaming workloads are the ones
// BENCHMARK.json lists and a run without -workload measures; the batch
// workload runs only when named.
type workload struct {
	name   string
	stream *streamSpec
	batch  *batchSpec
}

// readMix splits HTTP polls into conditional gets (If-None-Match), delta
// gets (Accept: the delta media type) and unconditional full gets.
type readMix struct{ conditional, delta, full float64 }

// streamSpec is an open-loop live workload: tenants close intervals on a
// fixed period, parked waiters and one SSE stream follow every
// publication, and one keep-alive connection polls at a fixed rate.
type streamSpec struct {
	tenants int
	// period is how often each tenant closes an interval; tenants are
	// staggered evenly across it.
	period  time.Duration
	polls   float64 // HTTP polls per second, over all tenants
	mix     readMix
	waiters int // parked hub waiters per tenant
	// coordinator puts a cluster coordinator between readers and the
	// node hosting the fleet.
	coordinator bool
	// checkpoints gives the fleet a checkpoint directory, so every
	// publication is persisted.
	checkpoints bool
	// resolveEvery is the tenants' base re-solve cadence; 0 means
	// gravity only. It is set on every tenant's spec, so the fleet and
	// the analysis share one value.
	resolveEvery int
	// tenant builds tenant k of a run seeded with seed; intervals is
	// how many intervals the run will close, for sources that are
	// scripted to a length. Tenant k always estimates the same instance,
	// so every seed hands the fleet problems of the same size and
	// difficulty; the seed decides the order demand arrives in and, on
	// scripted tenants, the events.
	tenant func(seed int64, k, intervals int) (tenantSource, error)
}

// tenantSource is one tenant's declaration, scenario and demand feed.
type tenantSource struct {
	spec fleet.TenantSpec
	sc   *netsim.Scenario
	// demand is the collected rate vector of interval i.
	demand func(i int) linalg.Vector
	// tl, when set, has its topology swaps armed on the tenant's engine.
	tl *timeline.Timeline
}

// workloads returns the benchmark's workloads. Rates were calibrated once
// so that process CPU stays at or below 1.2 cores on a 2-core machine;
// see bench/README.md.
func workloads() []workload {
	return []workload{
		{
			// Warm re-solves and fleet queueing set freshness while serving
			// is light, so a solver or scheduler gain shows here.
			name: "fleet-steady",
			stream: &streamSpec{
				tenants: 8, period: 25 * time.Millisecond,
				polls: 50, mix: readMix{0.6, 0.3, 0.1}, waiters: 64,
				resolveEvery: 3,
				tenant:       europeTenant,
			},
		},
		{
			// Hot-swap remaps, post-swap and drift-triggered re-solves and
			// a checkpoint per publication load the stream and fleet write
			// paths beside the reads, so a checkpoint or swap change shows
			// here and not in fleet-steady.
			name: "fleet-swap",
			stream: &streamSpec{
				tenants: 4, period: 50 * time.Millisecond,
				polls: 50, mix: readMix{0.6, 0.3, 0.1}, waiters: 64,
				checkpoints: true, resolveEvery: 3,
				tenant: swapTenant,
			},
		},
		{
			// The solver is idle, so 565 KB encodes, delta fallback, waiter
			// fan-out and the coordinator hop dominate: a serve or cluster
			// gain shows here and should not move fleet-steady.
			name: "serve-coord",
			stream: &streamSpec{
				tenants: 2, period: 100 * time.Millisecond,
				polls: 100, mix: readMix{0.7, 0.2, 0.1}, waiters: 2000,
				coordinator: true,
				tenant:      scaledTenant("scaled:100"),
			},
		},
		{
			// The offline research path: sparse and solver kernels do all
			// the work and nothing streams or serves, so a kernel gain
			// shows here.
			name:  "batch-scale100",
			batch: &batchSpec{spec: "scaled:100"},
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tenantRNG is the random source of tenant k in a run seeded with seed.
func tenantRNG(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed<<8 | int64(k)))
}

// replay loops over demands starting at a point the seed picks.
func replay(seed int64, k int, demands []linalg.Vector) func(i int) linalg.Vector {
	phase := tenantRNG(seed, k).Intn(len(demands))
	return func(i int) linalg.Vector { return demands[(i+phase)%len(demands)] }
}

// europeTenant is the paper's European subnetwork replaying its
// generated day of demand in a loop, re-solved with entropy.
func europeTenant(seed int64, k, _ int) (tenantSource, error) {
	s := int64(k + 1)
	sc, err := netsim.BuildEurope(s)
	if err != nil {
		return tenantSource{}, err
	}
	return tenantSource{
		spec:   fleet.TenantSpec{Name: fmt.Sprintf("eu%d", k), Source: "europe", Seed: s},
		sc:     sc,
		demand: replay(seed, k, sc.Series.Demands),
	}, nil
}

// scaledTenant is a scenario-lab instance replaying its busy window in a
// loop.
func scaledTenant(family string) func(seed int64, k, _ int) (tenantSource, error) {
	return func(seed int64, k, _ int) (tenantSource, error) {
		s := int64(k + 1)
		in, err := scenario.Build(family, s)
		if err != nil {
			return tenantSource{}, err
		}
		return tenantSource{
			spec:   fleet.TenantSpec{Name: fmt.Sprintf("s%d", k), Source: "scenario:" + family, Seed: s},
			sc:     in.Sc,
			demand: replay(seed, k, in.BusySeries().Demands),
		}, nil
	}
}

// swapTenant runs a seed-generated timeline over scaled:europe: a link
// fails for 30 intervals out of every 60 and a threefold flash crowd hits
// a pair for 15 intervals out of every 90, with adaptive, drift-triggered
// cadence and the anomaly detector on.
func swapTenant(seed int64, k, intervals int) (tenantSource, error) {
	s := int64(k + 1)
	in, err := scenario.Build(scenario.DefaultScriptBase, s)
	if err != nil {
		return tenantSource{}, err
	}
	script, err := swapScript(in, tenantRNG(seed, k), intervals)
	if err != nil {
		return tenantSource{}, err
	}
	parsed, err := timeline.Parse(script)
	if err != nil {
		return tenantSource{}, err
	}
	tl, _, err := scenario.BuildScript(parsed, s)
	if err != nil {
		return tenantSource{}, err
	}
	steps := tl.Steps
	return tenantSource{
		spec: fleet.TenantSpec{
			Name: fmt.Sprintf("sw%d", k), Source: "scenario:script", Seed: s,
			DriftThreshold: 0.05, ResolveMaxEvery: 12, AnomalyFactor: 3,
		},
		sc:     tl.Base,
		demand: func(i int) linalg.Vector { return steps[i%len(steps)].Demand },
		tl:     tl,
	}, nil
}

// swapScript writes the timeline script of one fleet-swap tenant over
// the base instance in, drawing the events from rng. Links whose failure
// would partition the network are never chosen.
func swapScript(in *scenario.Instance, rng *rand.Rand, intervals int) ([]byte, error) {
	links, err := survivableLinks(in)
	if err != nil {
		return nil, err
	}
	type event struct {
		At         int            `json:"at"`
		FailLink   *string        `json:"fail_link,omitempty"`
		Restore    *string        `json:"restore,omitempty"`
		FlashCrowd map[string]any `json:"flash_crowd,omitempty"`
	}
	// The events keep a fixed rhythm and size; the seed picks where the
	// rhythm starts, the links and the pairs. Drawing their spacing and
	// surge factors too made the solver's work, and with it freshness,
	// differ from seed to seed (a spread of 0.14 against 0.08).
	var events []event
	for t := 40 + rng.Intn(20); t+40 < intervals; t += 60 {
		link := strconv.Itoa(links[rng.Intn(len(links))])
		events = append(events,
			event{At: t, FailLink: &link},
			event{At: t + 30, Restore: &link})
	}
	pops := in.Sc.Net.NumPoPs()
	for t := 60 + rng.Intn(30); t+30 < intervals; t += 90 {
		src := rng.Intn(pops)
		dst := (src + 1 + rng.Intn(pops-1)) % pops
		events = append(events, event{At: t, FlashCrowd: map[string]any{
			"pair":   []string{strconv.Itoa(src), strconv.Itoa(dst)},
			"factor": 3,
			"until":  t + 15,
		}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return json.Marshal(map[string]any{
		"format":    timeline.Format,
		"base":      scenario.DefaultScriptBase,
		"intervals": intervals,
		"events":    events,
	})
}

// survivableLinks lists the interior links of an instance whose failure
// leaves the network routable.
func survivableLinks(in *scenario.Instance) ([]int, error) {
	var out []int
	for _, l := range in.Sc.Net.Links {
		if l.Kind != topology.Interior {
			continue
		}
		probe := &timeline.Script{Intervals: 2, Events: []timeline.Event{
			{Index: 0, At: 1, Kind: "fail_link", Link: strconv.Itoa(l.ID)},
		}}
		if _, err := timeline.Compile(in.Sc, in.Start, probe); err == nil {
			out = append(out, l.ID)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no interior link can fail without partitioning the network", in.Spec)
	}
	return out, nil
}
