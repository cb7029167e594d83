// Command tmserve is the continuous traffic-matrix estimation daemon: it
// drives one or many measurement sources through internal/stream engines
// and serves the evolving estimates over HTTP/JSON. Every tenant is
// declared by a tenant spec (internal/fleet): a named subnetwork — one
// of the paper's two backbones, a scenario-lab family, a tmgen file or
// a timeline script — with its source, seed, cadence, method, SLOs and
// anomaly detector. Its feed is a deterministic replay, or with a
// live: source a simulated collector deployment (UDP agents,
// distributed pollers, TCP uploads). The flags hold only process
// settings. With -fleet config.json one process shards many tenants,
// each with its own engine, store and checkpoint, while all tenants'
// full re-solves are multiplexed onto one shared worker pool
// (-parallel) with round-robin fairness. With neither -fleet nor
// -cluster the daemon hosts the one tenant TenantSpec{Name: "default"}:
// europe, seed 1, 24 intervals at 100 ms, window 6, entropy every 3.
//
// In cluster mode a fleet is sharded across processes: every process
// reads the same cluster config (-cluster cluster.json) and runs either
// as a member node (-node <name>) hosting the tenants the config
// assigns to it, syncing standby checkpoints and answering adoption
// requests, or as the coordinator (-coordinator) — the fleet-wide
// front door that aggregates /v1/tenants across nodes, proxies tenant
// reads to the owning node, and promotes standbys via checkpoint handoff when an owner fails health
// probes (internal/cluster; see docs/API.md and README "Running a
// cluster").
//
// After every consumed polling interval an engine refreshes its
// incremental gravity estimate; every resolve_every intervals it
// schedules a full re-solve (method entropy|bayes|vardi|fanout),
// warm-started from the previously published estimate, with an
// optionally adaptive cadence (drift_threshold, resolve_max_every).
//
// With -checkpoint-dir (one file per tenant) the daemon is crash-safe:
// engine state is restored on boot — a restarted daemon serves its last
// snapshots immediately instead of going dark while collectors refill —
// and persisted atomically on every publication and at shutdown.
//
// The HTTP surface (internal/serve) is a cached fan-out read path:
// every publication is encoded exactly once and shared by all clients,
// consecutive versions are delta encoded, and all long-polls and SSE
// subscribers multiplex off one observation loop per tenant, bounded by
// the spec's max_waiters (excess clients get 429 + Retry-After).
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
//	GET /metrics/prom          Prometheus text-format telemetry: resolve
//	                           latency/iteration histograms, drift and
//	                           anomaly gauges, SLO degradation, serving
//	                           counters (docs/METRICS.md)
//
// A spec's SLO thresholds (slo_max_drift, slo_max_resolve_mre,
// slo_max_checkpoint_age) mark a tenant degraded with a named cause on
// /healthz — the HTTP status stays 200, degradation is an operator
// signal, not a failover trigger — and its drift-anomaly detector
// (anomaly_factor) raises tm_anomaly_active when window drift spikes
// past its rolling baseline.
//
// The daemon keeps serving after collections finish and shuts down
// gracefully on SIGINT/SIGTERM via the usual context plumbing.
//
// Usage:
//
//	tmserve
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
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

type config struct {
	addr          string
	fleetPath     string
	clusterPath   string
	nodeName      string
	coordinator   bool
	checkpointDir string
	parallel      int

	// ready, when non-nil, receives the bound listen address once the
	// HTTP server is up (used by the end-to-end test with -addr :0).
	ready chan<- net.Addr
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7080", "HTTP listen address")
	flag.StringVar(&cfg.fleetPath, "fleet", "", "fleet config JSON declaring the tenants; without it (and without -cluster) one default tenant is served")
	flag.StringVar(&cfg.clusterPath, "cluster", "", "cluster config JSON sharding a fleet across processes; combine with exactly one of -node or -coordinator")
	flag.StringVar(&cfg.nodeName, "node", "", "run as the named cluster member: host the tenants -cluster assigns to it (requires -checkpoint-dir)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "run as the cluster's front door: aggregate /v1/tenants, route tenant reads to owning nodes, fail over via checkpoint handoff")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "per-tenant checkpoint directory: each tenant restores from and persists to <dir>/<name>.ckpt")
	flag.IntVar(&cfg.parallel, "parallel", 0, "shared re-solve worker pool size across all tenants; 0 = GOMAXPROCS")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
		os.Exit(1)
	}
}

// validate rejects cluster role combinations that would otherwise be
// silently ignored or fail deep inside startup with a message that names
// no flag. It runs before any config is loaded or scenario built.
func (cfg config) validate() error {
	if (cfg.nodeName != "" || cfg.coordinator) && cfg.clusterPath == "" {
		return fmt.Errorf("-node and -coordinator pick a role within a cluster; both require -cluster <config>")
	}
	if cfg.clusterPath == "" {
		return nil
	}
	switch {
	case cfg.fleetPath != "":
		return fmt.Errorf("-cluster and -fleet are mutually exclusive: a cluster config already declares the tenants")
	case cfg.nodeName != "" && cfg.coordinator:
		return fmt.Errorf("-node and -coordinator are mutually exclusive: a process is one or the other")
	case cfg.nodeName == "" && !cfg.coordinator:
		return fmt.Errorf("-cluster needs a role: -node <name> to host tenants or -coordinator to front the cluster")
	case cfg.coordinator && cfg.checkpointDir != "":
		return fmt.Errorf("-checkpoint-dir is for nodes hosting engines; the coordinator holds no tenant state")
	case cfg.nodeName != "" && cfg.checkpointDir == "":
		return fmt.Errorf("-node requires -checkpoint-dir: checkpoint handoff and standby sync persist there")
	}
	return nil
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
	specs := []fleet.TenantSpec{{Name: "default"}}
	if cfg.fleetPath != "" {
		fc, err := fleet.LoadConfig(cfg.fleetPath)
		if err != nil {
			return err
		}
		specs = fc.Tenants
	}
	f, reg, err := newFleet(cfg, false, out, specs)
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

// newFleet builds the fleet of an engine-hosting daemon (-fleet, the
// default tenant or a cluster node), declares a tenant per spec and
// restores each from its checkpoint where one exists. One registry
// carries the whole daemon's telemetry: the fleet's estimation/SLO
// families and the server's serving families land on the same
// GET /metrics/prom scrape.
func newFleet(cfg config, allowEmpty bool, out io.Writer, specs []fleet.TenantSpec) (*fleet.Fleet, *obs.Registry, error) {
	reg := obs.NewRegistry()
	f := fleet.New(runner.NewPool(cfg.parallel), fleet.Options{
		CheckpointDir: cfg.checkpointDir,
		AllowEmpty:    allowEmpty,
		Metrics:       reg,
		Logf:          logger(out),
	})
	for _, spec := range specs {
		if _, err := f.Add(spec); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.RestoreAll(); err != nil {
		return nil, nil, err
	}
	return f, reg, nil
}

// runClusterNode boots one cluster member: a fleet holding only the
// tenants the shared config assigns to this node (possibly none — a
// pure standby, so the fleet may start empty), wrapped in the cluster
// runtime that syncs standby checkpoints and answers the coordinator's
// adoption requests.
func runClusterNode(ctx context.Context, cc cluster.Config, cfg config, out io.Writer) error {
	f, reg, err := newFleet(cfg, true, out, cc.OwnedBy(cfg.nodeName))
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
	return listenAndServe(ctx, cfg, func(addr net.Addr) {
		fmt.Fprintf(out, "tmserve: coordinator on %s: %d node(s), %d tenant(s), proxying tenant reads\n",
			addr, len(cc.Nodes), len(cc.Tenants))
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
			Node:    admin,
			Metrics: reg,
		}).Handler(), fleetDone
	})
}
