// Command tmserve is the continuous traffic-matrix estimation daemon: it
// drives one or many measurement sources through internal/stream engines
// and serves the evolving estimates over HTTP/JSON. In single-tenant
// mode (the default) the classic flags pick one scenario and one
// measurement source — a live simulated collector deployment (UDP
// agents, distributed pollers, TCP uploads; -mode live) or a
// deterministic replay of the scenario's demand series (-mode replay).
// In fleet mode (-fleet config.json) one process shards many tenants —
// named subnetworks built from the paper's two backbones, scenario-lab
// families or tmgen files — each with its own engine, store and
// checkpoint, while all tenants' full re-solves are multiplexed onto one
// shared worker pool (-parallel) with round-robin fairness
// (internal/fleet). Single-tenant mode is just a one-tenant fleet, so
// the two modes behave identically where they overlap.
//
// In cluster mode a fleet is sharded across processes: every process
// reads the same cluster config (-cluster cluster.json) and runs either
// as a member node (-node <name>) hosting the tenants the config
// assigns to it, syncing standby checkpoints and answering adoption
// requests, or as the coordinator (-coordinator) — the fleet-wide
// front door that aggregates /v1/tenants across nodes, proxies (or 307
// redirects, routing "redirect") tenant reads to the owning node, and
// promotes standbys via checkpoint handoff when an owner fails health
// probes (internal/cluster; see docs/API.md and README "Running a
// cluster").
//
// After every consumed polling interval an engine refreshes its
// incremental gravity estimate; every -resolve-every intervals it
// schedules a full re-solve (-method entropy|bayes|vardi|fanout),
// warm-started from the previously published estimate, with an
// optionally adaptive cadence (-drift-threshold, -resolve-max-every;
// -drift-threshold requires re-solves to be enabled and tmserve rejects
// the combination with -resolve-every 0 at startup).
//
// With -checkpoint (single-tenant file) or -checkpoint-dir (one file
// per tenant) the daemon is crash-safe: engine state is restored on
// boot — a restarted daemon serves its last snapshots immediately
// instead of going dark while collectors refill — and persisted
// atomically on every publication and at shutdown.
//
// The HTTP surface (internal/serve) is a cached fan-out read path:
// every publication is encoded exactly once and shared by all clients,
// consecutive versions are delta encoded, and all long-polls and SSE
// subscribers multiplex off one observation loop per tenant, bounded by
// -max-waiters (excess clients get 429 + Retry-After).
//
// Endpoints (see docs/API.md):
//
//	GET /v1/tenants            every tenant's status + serving stats
//	GET /v1/t/{name}/snapshot  latest snapshot; ETag/If-None-Match
//	                           conditional gets, ?min_version=N
//	                           long-poll, delta responses via
//	                           Accept: application/vnd.tmserve.delta+json
//	GET /v1/t/{name}/events    SSE stream of versions + deltas
//	GET /v1/t/{name}/metrics   tenant's estimation-error history
//	GET /healthz               liveness plus per-tenant state
//	GET /tenants               every tenant's status (name, state, version)
//	GET /t/{name}/snapshot     tenant's latest versioned snapshot;
//	                           ?min_version=N long-polls until version N
//	GET /t/{name}/metrics      tenant's estimation-error history
//	GET /snapshot              single-tenant alias of /t/default/snapshot
//	GET /metrics               single-tenant alias of /t/default/metrics
//	GET /metrics/prom          Prometheus text-format telemetry: resolve
//	                           latency/iteration histograms, drift and
//	                           anomaly gauges, SLO degradation, serving
//	                           counters (docs/METRICS.md)
//
// Per-tenant SLO thresholds (-slo-max-drift, -slo-max-resolve-mre,
// -slo-max-ckpt-age; per tenant in fleet configs) mark a tenant
// degraded with a named cause on /healthz — the HTTP status stays 200,
// degradation is an operator signal, not a failover trigger — and the
// drift-anomaly detector (-anomaly-factor) raises tm_anomaly_active
// when window drift spikes past its rolling baseline.
//
// The daemon keeps serving after collections finish and shuts down
// gracefully on SIGINT/SIGTERM via the usual context plumbing.
//
// Usage:
//
//	tmserve -region europe -cycles 24 -window 6 -resolve-every 3
//	tmserve -scenario europe.json -mode replay -pace 200ms
//	tmserve -mode live -pollers 3 -drop 0.02 -speed 0.1
//	tmserve -checkpoint tm.ckpt -drift-threshold 0.1 -resolve-max-every 12
//	tmserve -timeline examples/timelines/failure_reroute.json -pace 50ms
//	tmserve -fleet fleet.json -checkpoint-dir ckpt -parallel 8
//	tmserve -cluster cluster.json -node n1 -checkpoint-dir ckpt-n1
//	tmserve -cluster cluster.json -coordinator -addr :7080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

type config struct {
	addr     string
	region   string
	scenario string
	timeline string
	seed     int64
	mode     string
	cycles   int

	window          int
	minCoverage     float64
	resolveEvery    int
	resolveMaxEvery int
	driftThreshold  float64
	method          string
	reg             float64
	sigmaInv2       float64
	checkpoint      string

	sloMaxDrift      float64
	sloMaxResolveMRE float64
	sloMaxCkptAge    time.Duration
	anomalyFactor    float64

	fleetPath     string
	checkpointDir string
	parallel      int
	maxWaiters    int

	clusterPath string
	nodeName    string
	coordinator bool

	pace    time.Duration // replay
	pollers int           // live
	drop    float64       // live
	speed   float64       // live

	// ready, when non-nil, receives the bound listen address once the
	// HTTP server is up (used by the end-to-end test with -addr :0).
	ready chan<- net.Addr

	// set records which flags appeared on the command line (flag.Visit),
	// so validate can reject single-tenant flags that -fleet would
	// silently ignore. Nil (as in the in-process tests, which fill the
	// struct directly) disables that check.
	set map[string]bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7080", "HTTP listen address")
	flag.StringVar(&cfg.region, "region", "europe", "scenario to simulate: europe or america")
	flag.StringVar(&cfg.scenario, "scenario", "", "scenario JSON produced by tmgen (overrides -region)")
	flag.StringVar(&cfg.timeline, "timeline", "", "timeline script JSON (internal/timeline): scripted demand events replayed with routing hot-swaps; overrides -region/-scenario, and -cycles then counts whole timeline passes")
	flag.Int64Var(&cfg.seed, "seed", 1, "scenario seed (ignored with -scenario)")
	flag.StringVar(&cfg.mode, "mode", "replay", "measurement source: replay (deterministic) or live (UDP/TCP pipeline)")
	flag.IntVar(&cfg.cycles, "cycles", 24, "polling intervals to collect; 0 = run until interrupted")
	flag.IntVar(&cfg.window, "window", 6, "sliding estimation window in intervals; 0 = expanding")
	flag.Float64Var(&cfg.minCoverage, "min-coverage", 0.9, "LSP coverage fraction required before a closed interval is used")
	flag.IntVar(&cfg.resolveEvery, "resolve-every", 3, "full re-solve every N intervals; 0 = incremental gravity only")
	flag.IntVar(&cfg.resolveMaxEvery, "resolve-max-every", 0, "adaptive cadence cap: steady windows back the cadence off up to this (needs -drift-threshold; 0 = fixed cadence)")
	flag.Float64Var(&cfg.driftThreshold, "drift-threshold", 0, "window drift (relative L1 between consecutive window means) that triggers an immediate re-solve; 0 = fixed cadence; requires -resolve-every > 0")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "checkpoint file: restore engine state on boot, persist it on every publication and at shutdown")
	flag.Float64Var(&cfg.sloMaxDrift, "slo-max-drift", 0, "SLO: window drift beyond this marks the tenant degraded on /healthz and tm_tenant_degraded; 0 = no threshold")
	flag.Float64Var(&cfg.sloMaxResolveMRE, "slo-max-resolve-mre", 0, "SLO: re-solve error (MRE against the window mean) beyond this marks the tenant degraded; 0 = no threshold")
	flag.DurationVar(&cfg.sloMaxCkptAge, "slo-max-ckpt-age", 0, "SLO: a last successful checkpoint save older than this marks the tenant degraded (needs -checkpoint); 0 = no threshold")
	flag.Float64Var(&cfg.anomalyFactor, "anomaly-factor", 0, "drift-anomaly detector: flag the tenant when window drift exceeds this factor times its rolling baseline (tm_anomaly_active); 0 = detector off")
	flag.StringVar(&cfg.fleetPath, "fleet", "", "fleet config JSON declaring many tenants (multi-tenant mode; replay sources only)")
	flag.StringVar(&cfg.clusterPath, "cluster", "", "cluster config JSON sharding a fleet across processes; combine with exactly one of -node or -coordinator")
	flag.StringVar(&cfg.nodeName, "node", "", "run as the named cluster member: host the tenants -cluster assigns to it (requires -checkpoint-dir)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "run as the cluster's front door: aggregate /v1/tenants, route tenant reads to owning nodes, fail over via checkpoint handoff")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "per-tenant checkpoint directory: each tenant restores from and persists to <dir>/<name>.ckpt")
	flag.IntVar(&cfg.parallel, "parallel", 0, "shared re-solve worker pool size across all tenants; 0 = GOMAXPROCS")
	flag.IntVar(&cfg.maxWaiters, "max-waiters", 0, "per-tenant cap on concurrent long-poll waiters + SSE subscribers, 429 beyond it; 0 = 65536 (tenant specs can override per tenant)")
	flag.StringVar(&cfg.method, "method", "entropy", "full re-solve estimator: entropy | bayes | vardi | fanout")
	flag.Float64Var(&cfg.reg, "reg", 1000, "regularization parameter for entropy/bayes re-solves")
	flag.Float64Var(&cfg.sigmaInv2, "sigma", 0.01, "sigma^-2 for vardi re-solves")
	flag.DurationVar(&cfg.pace, "pace", 100*time.Millisecond, "replay: wall-clock time per polling interval")
	flag.IntVar(&cfg.pollers, "pollers", 3, "live: distributed pollers")
	flag.Float64Var(&cfg.drop, "drop", 0.02, "live: per-datagram UDP loss probability")
	flag.Float64Var(&cfg.speed, "speed", 0.1, "live: simulated minutes per wall millisecond")
	flag.Parse()
	cfg.set = make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { cfg.set[fl.Name] = true })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
		os.Exit(1)
	}
}

// validate rejects flag combinations that would otherwise be silently
// ignored or fail deep inside engine construction with a message that
// names no flag. It runs before any scenario is built, so a bad command
// line fails in milliseconds, not after a 100-PoP topology generation.
func (cfg config) validate() error {
	if cfg.driftThreshold < 0 {
		return fmt.Errorf("-drift-threshold %v is negative", cfg.driftThreshold)
	}
	if cfg.maxWaiters < 0 {
		return fmt.Errorf("-max-waiters %d is negative", cfg.maxWaiters)
	}
	if cfg.sloMaxDrift < 0 || cfg.sloMaxResolveMRE < 0 || cfg.sloMaxCkptAge < 0 {
		return fmt.Errorf("SLO thresholds (-slo-max-drift, -slo-max-resolve-mre, -slo-max-ckpt-age) cannot be negative")
	}
	if cfg.anomalyFactor < 0 {
		return fmt.Errorf("-anomaly-factor %v is negative", cfg.anomalyFactor)
	}
	if cfg.sloMaxCkptAge > 0 && cfg.checkpoint == "" && cfg.checkpointDir == "" {
		return fmt.Errorf("-slo-max-ckpt-age watches checkpoint persistence: set -checkpoint (or -checkpoint-dir)")
	}
	if cfg.driftThreshold > 0 && cfg.resolveEvery <= 0 {
		return fmt.Errorf("-drift-threshold %v requires full re-solves: set -resolve-every > 0 (drift can only trigger a re-solve that is enabled)", cfg.driftThreshold)
	}
	if cfg.resolveMaxEvery > cfg.resolveEvery && cfg.driftThreshold == 0 {
		return fmt.Errorf("-resolve-max-every %d backs the cadence off only on a drift signal: set -drift-threshold > 0", cfg.resolveMaxEvery)
	}
	if (cfg.nodeName != "" || cfg.coordinator) && cfg.clusterPath == "" {
		return fmt.Errorf("-node and -coordinator pick a role within a cluster; both require -cluster <config>")
	}
	if cfg.clusterPath != "" {
		switch {
		case cfg.fleetPath != "":
			return fmt.Errorf("-cluster and -fleet are mutually exclusive: a cluster config already declares the tenants")
		case cfg.nodeName != "" && cfg.coordinator:
			return fmt.Errorf("-node and -coordinator are mutually exclusive: a process is one or the other")
		case cfg.nodeName == "" && !cfg.coordinator:
			return fmt.Errorf("-cluster needs a role: -node <name> to host tenants or -coordinator to front the cluster")
		case cfg.checkpoint != "":
			return fmt.Errorf("-checkpoint is single-tenant only; cluster nodes use -checkpoint-dir")
		}
		if cfg.coordinator && cfg.checkpointDir != "" {
			return fmt.Errorf("-checkpoint-dir is for nodes hosting engines; the coordinator holds no tenant state")
		}
		if cfg.nodeName != "" && cfg.checkpointDir == "" {
			return fmt.Errorf("-node requires -checkpoint-dir: checkpoint handoff and standby sync persist there")
		}
	}
	if cfg.fleetPath != "" || cfg.clusterPath != "" {
		multi := "-fleet"
		if cfg.clusterPath != "" {
			multi = "-cluster"
		}
		if cfg.mode == "live" {
			return fmt.Errorf("%s tenants are deterministic replays; -mode live is single-tenant only", multi)
		}
		if cfg.checkpoint != "" {
			return fmt.Errorf("-checkpoint is single-tenant only; with %s use -checkpoint-dir", multi)
		}
		// Every other single-tenant flag is superseded by the tenant
		// specs: passing one alongside -fleet/-cluster would be silently
		// ignored, which is exactly the class of mistake validate exists
		// to catch.
		for _, name := range []string{
			"region", "scenario", "timeline", "seed", "mode", "cycles", "window",
			"min-coverage", "resolve-every", "resolve-max-every",
			"drift-threshold", "method", "reg", "sigma", "pace",
			"pollers", "drop", "speed",
			"slo-max-drift", "slo-max-resolve-mre", "slo-max-ckpt-age",
			"anomaly-factor",
		} {
			if cfg.set[name] {
				return fmt.Errorf("-%s is single-tenant only and ignored with %s; set it per tenant in the %s config", name, multi, multi[1:])
			}
		}
	}
	if cfg.timeline != "" && cfg.mode == "live" {
		return fmt.Errorf("-timeline is a deterministic scripted replay; -mode live cannot drive it")
	}
	if cfg.checkpoint != "" && cfg.checkpointDir != "" {
		return fmt.Errorf("-checkpoint and -checkpoint-dir are mutually exclusive")
	}
	return nil
}

// singleTenantSpec maps the classic single-tenant flags onto a fleet
// tenant named "default", translating the flags' "0 means off"
// sentinels to the spec's "-1 means off" (0 is "use the default" there).
func singleTenantSpec(cfg config) (fleet.TenantSpec, error) {
	spec := fleet.TenantSpec{
		Name:            "default",
		Seed:            cfg.seed,
		Pace:            cfg.pace.String(),
		ResolveMaxEvery: cfg.resolveMaxEvery,
		DriftThreshold:  cfg.driftThreshold,
		Method:          cfg.method,
		Reg:             cfg.reg,
		SigmaInv2:       cfg.sigmaInv2,
		Checkpoint:      cfg.checkpoint,

		SLOMaxDrift:      cfg.sloMaxDrift,
		SLOMaxResolveMRE: cfg.sloMaxResolveMRE,
		AnomalyFactor:    cfg.anomalyFactor,
	}
	if cfg.sloMaxCkptAge > 0 {
		spec.SLOMaxCheckpointAge = cfg.sloMaxCkptAge.String()
	}
	switch {
	case cfg.timeline != "":
		spec.Source = "scenario:script:" + cfg.timeline
	case cfg.scenario != "":
		spec.Source = "file:" + cfg.scenario
	case cfg.region == "europe" || cfg.region == "america":
		spec.Source = cfg.region
	default:
		return spec, fmt.Errorf("unknown -region %q (europe or america)", cfg.region)
	}
	if cfg.cycles <= 0 {
		spec.Cycles = -1 // run until interrupted
	} else {
		spec.Cycles = cfg.cycles
	}
	if cfg.window <= 0 {
		spec.Window = -1 // expanding
	} else {
		spec.Window = cfg.window
	}
	if cfg.resolveEvery <= 0 {
		spec.ResolveEvery = -1 // incremental gravity only
	} else {
		spec.ResolveEvery = cfg.resolveEvery
	}
	if cfg.minCoverage <= 0 {
		spec.MinCoverage = 1 // the stream default: full coverage required
	} else {
		spec.MinCoverage = cfg.minCoverage
	}
	return spec, nil
}

// run wires tenants, measurement sources, the shared re-solve pool and
// the HTTP server, and blocks until ctx is cancelled (clean shutdown,
// returns nil) or a component fails. Separated from main so the
// end-to-end tests can drive the real daemon in-process.
func run(ctx context.Context, cfg config, out io.Writer) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.clusterPath != "" {
		cc, err := cluster.Load(cfg.clusterPath)
		if err != nil {
			return err
		}
		if cfg.coordinator {
			return runCoordinator(ctx, cc, cfg, out)
		}
		return runClusterNode(ctx, cc, cfg, out)
	}
	f, reg, err := newFleet(cfg, false, out, func(f *fleet.Fleet) error {
		if cfg.fleetPath == "" {
			return addSingleTenant(f, cfg)
		}
		fc, err := fleet.LoadConfig(cfg.fleetPath)
		if err != nil {
			return err
		}
		return addAll(f, fc.Tenants)
	})
	if err != nil {
		return err
	}
	return serveFleet(ctx, f, cfg, nil, reg, out)
}

// logger returns the daemon's log function: one "tmserve: " line per
// call on out.
func logger(out io.Writer) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(out, "tmserve: "+format+"\n", args...)
	}
}

// newFleet builds the fleet of an engine-hosting daemon (single-tenant,
// -fleet or cluster node), declares its tenants with add and restores
// each from its checkpoint where one exists. One registry carries the
// whole daemon's telemetry: the fleet's estimation/SLO families and the
// server's serving families land on the same GET /metrics/prom scrape.
func newFleet(cfg config, allowEmpty bool, out io.Writer, add func(*fleet.Fleet) error) (*fleet.Fleet, *obs.Registry, error) {
	reg := obs.NewRegistry()
	f := fleet.New(runner.NewPool(cfg.parallel), fleet.Options{
		CheckpointDir: cfg.checkpointDir,
		AllowEmpty:    allowEmpty,
		Metrics:       reg,
		Logf:          logger(out),
	})
	if err := add(f); err != nil {
		return nil, nil, err
	}
	if _, err := f.RestoreAll(); err != nil {
		return nil, nil, err
	}
	return f, reg, nil
}

// addAll declares a tenant for every spec.
func addAll(f *fleet.Fleet, specs []fleet.TenantSpec) error {
	for _, spec := range specs {
		if _, err := f.Add(spec); err != nil {
			return err
		}
	}
	return nil
}

// runClusterNode boots one cluster member: a fleet holding only the
// tenants the shared config assigns to this node (possibly none — a
// pure standby, so the fleet may start empty), wrapped in the cluster
// runtime that syncs standby checkpoints and answers the coordinator's
// adoption requests.
func runClusterNode(ctx context.Context, cc cluster.Config, cfg config, out io.Writer) error {
	f, reg, err := newFleet(cfg, true, out, func(f *fleet.Fleet) error {
		return addAll(f, cc.OwnedBy(cfg.nodeName))
	})
	if err != nil {
		return err
	}
	node, err := cluster.NewNode(cc, cfg.nodeName, f, cfg.checkpointDir, nil, logger(out))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tmserve: cluster node %s: hosting %d tenant(s), standby for %d\n",
		cfg.nodeName, len(cc.OwnedBy(cfg.nodeName)), len(cc.StandbyOn(cfg.nodeName)))
	return serveFleet(ctx, f, cfg, node, reg, out)
}

// runCoordinator boots the cluster's front door: no engines, no
// checkpoints — just the routing brain (health probes, failover,
// migration) and the HTTP surface that fans /v1/tenants out across
// members and forwards tenant reads to their owners.
func runCoordinator(ctx context.Context, cc cluster.Config, cfg config, out io.Writer) error {
	co := cluster.NewCoordinator(cc, nil, logger(out))
	style := "proxying"
	if cc.Redirect() {
		style = "redirecting"
	}
	return listenAndServe(ctx, cfg, func(addr net.Addr) {
		fmt.Fprintf(out, "tmserve: coordinator on %s: %d node(s), %d tenant(s), %s tenant reads\n",
			addr, len(cc.Nodes), len(cc.Tenants), style)
	}, func(runCtx context.Context) (http.Handler, <-chan error) {
		go co.Run(runCtx)
		return serve.NewCoordinator(co, nil).Handler(), nil
	})
}

// listenAndServe is every mode's HTTP lifecycle: bind cfg.addr, print
// the banner, signal cfg.ready, and serve the handler start returns.
// start launches the mode's loops on a context cancelled when serving
// stops — on ctx done, a server failure, or the loops' optional exit
// channel delivering — and the server then gets 5 s to drain. An
// undelivered exit channel is awaited before returning, so the loops'
// final work (the fleet's SaveAll) is done.
func listenAndServe(ctx context.Context, cfg config, banner func(net.Addr),
	start func(runCtx context.Context) (http.Handler, <-chan error)) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	banner(ln.Addr())
	if cfg.ready != nil {
		cfg.ready <- ln.Addr()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	handler, loopsDone := start(runCtx)
	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var runErr error
	select {
	case <-ctx.Done():
		runErr = ctx.Err()
	case err := <-loopsDone:
		loopsDone = nil
		runErr = err
	case err := <-serveErr:
		runErr = err
	}
	cancel()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = srv.Shutdown(shutCtx)
	if loopsDone != nil {
		<-loopsDone
	}
	return runErr
}

// addSingleTenant declares the single tenant. A scripted timeline builds
// its own compiled replay feed and arms the scripted routing hot-swaps,
// which Fleet.Add owns (the same path a scenario:script fleet tenant
// takes). Any other source is fed exactly as the pre-fleet daemon was:
// loadScenario keeps the legacy flag semantics to the letter (-seed 0
// really is seed 0, unlike a JSON spec where 0 means "default"), and
// the feed is built from the flags directly.
func addSingleTenant(f *fleet.Fleet, cfg config) error {
	spec, err := singleTenantSpec(cfg)
	if err != nil {
		return err
	}
	if cfg.timeline != "" {
		_, err = f.Add(spec)
		return err
	}
	sc, err := loadScenario(cfg)
	if err != nil {
		return err
	}
	cycles := cfg.cycles
	if cycles <= 0 {
		cycles = int(^uint(0) >> 1) // run until interrupted
	}
	var feed fleet.Feed
	switch cfg.mode {
	case "live":
		d := collector.NewDeployment(sc.Net, sc.Series, collector.DeploymentConfig{
			Pollers:         cfg.pollers,
			DropProb:        cfg.drop,
			MinutesPerMilli: cfg.speed,
			StepMinutes:     sc.Series.Cfg.StepMinutes,
			Seed:            cfg.seed,
		})
		feed = fleet.Feed{
			Store:   d.Store,
			Collect: func(ctx context.Context) error { return d.RunContext(ctx, cycles) },
		}
	case "replay":
		store := collector.NewStore(sc.Net.NumPairs())
		feed = fleet.Feed{
			Store: store,
			Collect: func(ctx context.Context) error {
				return collector.Replay(ctx, store, sc.Series, cycles, cfg.pace)
			},
		}
	default:
		return fmt.Errorf("unknown -mode %q (replay or live)", cfg.mode)
	}
	_, err = f.AddFeed(spec, sc, feed)
	return err
}

// serveFleet serves a fully declared (and possibly restored) fleet
// until ctx is done. node is non-nil only in cluster mode: it runs the
// standby sync loops and unlocks the cluster-only endpoints (checkpoint
// export, adoption).
func serveFleet(ctx context.Context, f *fleet.Fleet, cfg config, node *cluster.Node, reg *obs.Registry, out io.Writer) error {
	return listenAndServe(ctx, cfg, func(addr net.Addr) {
		for _, t := range f.Tenants() {
			sc := t.Scenario()
			fmt.Fprintf(out, "tmserve: tenant %s: %s (%d PoPs, %d LSPs), %s re-solves\n",
				t.Name(), sc.Region, sc.Net.NumPoPs(), sc.Net.NumPairs(), t.Spec().Method)
		}
		fmt.Fprintf(out, "tmserve: serving %d tenant(s) on %s (%d shared re-solve workers)\n",
			len(f.Tenants()), addr, f.Pool().Workers())
	}, func(runCtx context.Context) (http.Handler, <-chan error) {
		// The fleet exits early only on startup-grade failures (e.g. an
		// unwritable checkpoint directory); serving without estimation
		// would be lying to clients, so that shuts the daemon down.
		fleetDone := make(chan error, 1)
		go func() { fleetDone <- f.Run(runCtx) }()
		// The typed-nil guard matters: assigning a nil *cluster.Node into
		// the interface directly would make Options.Node non-nil and turn
		// every single-process daemon into a phantom cluster member.
		var admin serve.NodeAdmin
		if node != nil {
			admin = node
			go node.Run(runCtx)
		}
		return serve.New(runCtx, f, serve.Options{
			Single:     cfg.fleetPath == "" && cfg.clusterPath == "",
			MaxWaiters: cfg.maxWaiters,
			Node:       admin,
			Metrics:    reg,
		}).Handler(), fleetDone
	})
}

func loadScenario(cfg config) (*netsim.Scenario, error) {
	if cfg.scenario != "" {
		return netsim.LoadFile(cfg.scenario)
	}
	switch cfg.region {
	case "europe":
		return netsim.BuildEurope(cfg.seed)
	case "america":
		return netsim.BuildAmerica(cfg.seed)
	}
	return nil, fmt.Errorf("unknown -region %q (europe or america)", cfg.region)
}
