package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/stream"
)

// handlerFleet builds a one-tenant fleet around an idle feed (never
// run), so handler behavior before any data — and during shutdown — can
// be tested without a collection.
func handlerFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(runner.NewPool(1), fleet.Options{})
	if _, err := f.AddFeed(fleet.TenantSpec{Name: "default"}, sc, fleet.Feed{
		Store:   collector.NewStore(sc.Net.NumPairs()),
		Collect: func(context.Context) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// startServer runs the daemon in-process on an ephemeral port and returns
// its base URL plus a shutdown function that asserts a clean exit.
func startServer(t *testing.T, cfg config) (base string, shutdown func()) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	cfg.addr = "127.0.0.1:0"
	cfg.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, io.Discard) }()
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server did not come up")
	}
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shutdown returned %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down within 10s")
		}
	}
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestEndToEndReplay is the PR's acceptance demo: a simulated deployment
// (deterministic replay of the European scenario) streamed through the
// engine and served over HTTP must (a) emit at least 3 consecutive
// snapshots with monotonically non-increasing gravity estimation error
// and (b) produce an incremental gravity estimate that matches a batch
// gravity solve over the same window to within 1e-9.
func TestEndToEndReplay(t *testing.T) {
	const cycles, window = 12, 6
	base, shutdown := startServer(t, config{
		region: "europe", seed: 1, mode: "replay", cycles: cycles,
		window: window, minCoverage: 0.9, resolveEvery: 4,
		method: "entropy", reg: 1000, sigmaInv2: 0.01, pace: 0,
	})
	defer shutdown()

	// Progress gate: versions grow by one per publication (intervals and
	// re-solves both), so version >= cycles means the stream is moving.
	// Which publications those were is established from /metrics below.
	var progress stream.Snapshot
	if code := getJSON(t, fmt.Sprintf("%s/snapshot?min_version=%d", base, cycles), &progress); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}

	// (a) The gravity-error trajectory over consumed intervals must hold
	// a non-increasing run of >= 3 consecutive snapshots.
	deadline := time.Now().Add(30 * time.Second)
	var perInterval []float64
	for {
		var m struct {
			Points []stream.MetricPoint `json:"points"`
		}
		getJSON(t, base+"/metrics", &m)
		perInterval = perInterval[:0]
		seen := -1
		for _, p := range m.Points {
			if p.Interval > seen { // skip re-solve publications of the same window
				perInterval = append(perInterval, p.GravityMRE)
				seen = p.Interval
			}
		}
		if len(perInterval) >= cycles {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d interval publications after %d cycles", len(perInterval), cycles)
		}
		time.Sleep(10 * time.Millisecond)
	}
	run, best := 1, 1
	for i := 1; i < len(perInterval); i++ {
		if perInterval[i] <= perInterval[i-1] {
			run++
		} else {
			run = 1
		}
		if run > best {
			best = run
		}
	}
	if best < 3 {
		t.Fatalf("longest non-increasing gravity-error run is %d snapshots, want >= 3 (trajectory %v)", best, perInterval)
	}

	// All intervals are published now (the /metrics loop above saw every
	// one), so the latest snapshot covers the final window; re-solve
	// publications never regress the window state.
	var final stream.Snapshot
	getJSON(t, base+"/snapshot", &final)

	// (b) Incremental vs batch gravity on the final window. Replay is
	// lossless, so the collected window equals the generating series.
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	meanLoads := linalg.NewVector(sc.Rt.R.Rows())
	for k := cycles - window; k < cycles; k++ {
		linalg.Axpy(1, sc.Rt.LinkLoads(sc.Series.Demands[k]), meanLoads)
	}
	meanLoads.Scale(1 / float64(window))
	inst, err := core.NewInstance(sc.Rt, meanLoads)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.Gravity(inst)
	if len(final.Gravity) != len(batch) {
		t.Fatalf("snapshot gravity has %d demands, want %d", len(final.Gravity), len(batch))
	}
	for p := range batch {
		if d := math.Abs(batch[p] - final.Gravity[p]); d > 1e-9 {
			t.Fatalf("demand %d: served incremental %v vs batch %v (diff %g > 1e-9)", p, final.Gravity[p], batch[p], d)
		}
	}
	if final.Window != window || final.Interval != cycles-1 {
		t.Fatalf("final snapshot window %d interval %d, want %d/%d", final.Window, final.Interval, window, cycles-1)
	}

	// The periodic entropy re-solve must eventually be served too.
	deadline = time.Now().Add(60 * time.Second)
	for {
		var snap stream.Snapshot
		getJSON(t, base+"/snapshot", &snap)
		if snap.Resolve != nil {
			if snap.ResolveMethod != stream.MethodEntropy {
				t.Fatalf("resolve method %q, want entropy", snap.ResolveMethod)
			}
			if len(snap.Resolve) != sc.Net.NumPairs() {
				t.Fatalf("resolve has %d demands, want %d", len(snap.Resolve), sc.Net.NumPairs())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no re-solve served within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var health struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || !health.OK || health.Version < uint64(cycles) {
		t.Fatalf("healthz: code=%d ok=%v version=%d", code, health.OK, health.Version)
	}
}

// TestEndToEndLive smoke-tests the UDP/TCP pipeline end to end under the
// daemon: a short lossless live collection must publish snapshots that
// the HTTP API serves. Timing-dependent, so assertions stay coarse.
func TestEndToEndLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live socket pipeline is timing-dependent; skipped in -short")
	}
	base, shutdown := startServer(t, config{
		region: "europe", seed: 1, mode: "live", cycles: 6,
		window: 0, minCoverage: 0.5, resolveEvery: 0,
		method: "entropy", reg: 1000, sigmaInv2: 0.01,
		pollers: 2, drop: 0, speed: 0.05,
	})
	defer shutdown()

	var snap stream.Snapshot
	if code := getJSON(t, base+"/snapshot?min_version=2", &snap); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}
	if snap.Version < 2 || len(snap.Gravity) == 0 || len(snap.Mean) == 0 {
		t.Fatalf("implausible live snapshot: version=%d |gravity|=%d |mean|=%d",
			snap.Version, len(snap.Gravity), len(snap.Mean))
	}
	if snap.GravityMRE <= 0 || math.IsNaN(snap.GravityMRE) {
		t.Fatalf("implausible gravity MRE %v", snap.GravityMRE)
	}
}

// TestAPIBeforeFirstSnapshot drives the handler over an engine that has
// consumed nothing: /snapshot must 503, bad input must 400, /healthz
// must stay OK, and a pending long-poll must be released promptly when
// the daemon's run context is cancelled (the graceful-shutdown path).
func TestAPIBeforeFirstSnapshot(t *testing.T) {
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	srv := httptest.NewServer(serve.New(runCtx, handlerFleet(t), serve.Options{Single: true}).Handler())
	defer srv.Close()

	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/snapshot", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("/snapshot with no data gave status %d, want 503", code)
	}
	if code := getJSON(t, srv.URL+"/snapshot?min_version=notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad min_version gave status %d, want 400", code)
	}
	var health struct {
		OK   bool `json:"ok"`
		Have bool `json:"have_snapshot"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || !health.OK || health.Have {
		t.Fatalf("healthz before data: code=%d ok=%v have=%v", code, health.OK, health.Have)
	}

	// A long-poll for a version that will never arrive must be released
	// by run-context cancellation well before its own 30s bound — and
	// answered as a daemon shutdown (503), not mislabeled a timeout.
	pollDone := make(chan struct {
		code int
		err  string
	}, 1)
	go func() {
		var e struct {
			Error string `json:"error"`
		}
		code := getJSON(t, srv.URL+"/snapshot?min_version=1", &e)
		pollDone <- struct {
			code int
			err  string
		}{code, e.Error}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll block in WaitVersion
	cancelRun()
	select {
	case got := <-pollDone:
		if got.code != http.StatusServiceUnavailable {
			t.Fatalf("shutdown long-poll gave status %d, want 503", got.code)
		}
		if !strings.Contains(got.err, "shutting down") {
			t.Fatalf("shutdown long-poll error %q does not name the shutdown", got.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll not released by run-context cancellation")
	}
}

// TestLongPollClientDisconnect pins the third leg of the long-poll error
// mapping: when the *client* goes away, the handler must return without
// writing anything to the dead connection — previously it produced the
// same 504 + JSON body as a genuine timeout.
func TestLongPollClientDisconnect(t *testing.T) {
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	handler := serve.New(runCtx, handlerFleet(t), serve.Options{Single: true}).Handler()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/snapshot?min_version=1", nil).WithContext(reqCtx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		handler.ServeHTTP(rec, req)
		close(served)
	}()
	time.Sleep(50 * time.Millisecond) // let the poll block in WaitVersion
	cancelReq()                       // the client hangs up
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("handler not released by client disconnect")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("handler wrote %q to a disconnected client", rec.Body.String())
	}
	if rec.Header().Get("Content-Type") != "" {
		t.Fatal("handler set response headers for a disconnected client")
	}
}

// TestCheckpointRestart is the crash-safety acceptance demo: a daemon
// run with -checkpoint is killed after publishing, and its successor —
// pointed at the same file, with a pace so slow the collector cannot
// have produced anything yet — must serve the previous run's snapshot
// (same version, same re-solve) immediately on boot.
func TestCheckpointRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "tm.ckpt")
	const cycles = 8
	base, shutdown := startServer(t, config{
		region: "europe", seed: 1, mode: "replay", cycles: cycles,
		window: 4, minCoverage: 0.9, resolveEvery: 2,
		method: "entropy", reg: 1000, sigmaInv2: 0.01, pace: 0,
		checkpoint: ckpt,
	})
	// Wait until the stream is quiescent — every interval consumed and
	// the final cadence re-solve (interval 7) published — so nothing can
	// publish between this read and the shutdown save, and the restored
	// snapshot must match it exactly.
	var last stream.Snapshot
	if code := getJSON(t, fmt.Sprintf("%s/snapshot?min_version=%d", base, cycles), &last); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for last.Interval != cycles-1 || last.ResolveInterval != cycles-1 || last.Resolve == nil {
		if time.Now().After(deadline) {
			t.Fatalf("stream not quiescent before shutdown (interval %d, resolve %d)", last.Interval, last.ResolveInterval)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, base+"/snapshot", &last)
	}
	// Publish-time persistence is what makes a hard kill survivable: the
	// checkpoint must already be on disk while the daemon is still up,
	// not only written by the graceful-shutdown save.
	deadline = time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint on disk while the daemon is running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown() // SIGTERM-equivalent: the run context is cancelled

	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint on disk after shutdown: %v", err)
	}

	// The successor replays with an hour-long pace: any snapshot it
	// serves within the test's lifetime can only come from the restored
	// checkpoint.
	base2, shutdown2 := startServer(t, config{
		region: "europe", seed: 1, mode: "replay", cycles: cycles,
		window: 4, minCoverage: 0.9, resolveEvery: 2,
		method: "entropy", reg: 1000, sigmaInv2: 0.01, pace: time.Hour,
		checkpoint: ckpt,
	})
	defer shutdown2()
	var restored stream.Snapshot
	if code := getJSON(t, base2+"/snapshot", &restored); code != http.StatusOK {
		t.Fatalf("restarted daemon dark: /snapshot gave %d, want 200 immediately", code)
	}
	if restored.Version < last.Version {
		t.Fatalf("restored version %d older than the %d served before the restart", restored.Version, last.Version)
	}
	if restored.Interval != last.Interval || restored.Window != last.Window {
		t.Fatalf("restored snapshot covers interval %d window %d, want %d/%d",
			restored.Interval, restored.Window, last.Interval, last.Window)
	}
	if restored.Resolve == nil || restored.ResolveInterval != last.ResolveInterval {
		t.Fatalf("restored snapshot lost the re-solve (interval %d, want %d)",
			restored.ResolveInterval, last.ResolveInterval)
	}
	for p := range last.Mean {
		if restored.Mean[p] != last.Mean[p] {
			t.Fatalf("restored mean differs at demand %d: %v vs %v", p, restored.Mean[p], last.Mean[p])
		}
	}
	var health struct {
		OK   bool `json:"ok"`
		Have bool `json:"have_snapshot"`
	}
	if code := getJSON(t, base2+"/healthz", &health); code != http.StatusOK || !health.OK || !health.Have {
		t.Fatalf("restarted healthz: code=%d ok=%v have=%v", code, health.OK, health.Have)
	}
}

// TestFlagValidation covers the startup rejection of flag combinations
// that used to fail late (after the scenario build, with an error naming
// no flag) or not at all: -drift-threshold with re-solves disabled must
// be refused before any topology is generated, with an error that names
// both flags involved.
func TestFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		what string
		cfg  config
		want []string // substrings the error must carry
	}{
		{
			what: "drift threshold with re-solves disabled",
			cfg:  config{driftThreshold: 0.1, resolveEvery: 0},
			want: []string{"-drift-threshold", "-resolve-every"},
		},
		{
			what: "negative drift threshold",
			cfg:  config{driftThreshold: -1, resolveEvery: 3},
			want: []string{"-drift-threshold"},
		},
		{
			what: "cadence back-off without a drift signal",
			cfg:  config{resolveEvery: 3, resolveMaxEvery: 12},
			want: []string{"-resolve-max-every", "-drift-threshold"},
		},
		{
			what: "fleet with live mode",
			cfg:  config{fleetPath: "fleet.json", mode: "live", resolveEvery: 3},
			want: []string{"-fleet", "-mode live"},
		},
		{
			what: "fleet with single-tenant checkpoint",
			cfg:  config{fleetPath: "fleet.json", checkpoint: "tm.ckpt", resolveEvery: 3},
			want: []string{"-checkpoint-dir"},
		},
		{
			what: "checkpoint file and dir together",
			cfg:  config{checkpoint: "tm.ckpt", checkpointDir: "ckpt", resolveEvery: 3},
			want: []string{"-checkpoint", "-checkpoint-dir"},
		},
		{
			what: "explicitly set single-tenant flag with -fleet",
			cfg: config{fleetPath: "fleet.json", method: "vardi", resolveEvery: 3,
				set: map[string]bool{"method": true}},
			want: []string{"-method", "fleet config"},
		},
		{
			what: "node role without a cluster config",
			cfg:  config{nodeName: "n1", resolveEvery: 3},
			want: []string{"-cluster"},
		},
		{
			what: "coordinator role without a cluster config",
			cfg:  config{coordinator: true, resolveEvery: 3},
			want: []string{"-cluster"},
		},
		{
			what: "cluster without a role",
			cfg:  config{clusterPath: "cluster.json", resolveEvery: 3},
			want: []string{"-node", "-coordinator"},
		},
		{
			what: "node and coordinator together",
			cfg: config{clusterPath: "cluster.json", nodeName: "n1",
				coordinator: true, checkpointDir: "ckpt", resolveEvery: 3},
			want: []string{"-node", "-coordinator", "mutually exclusive"},
		},
		{
			what: "cluster and fleet together",
			cfg: config{clusterPath: "cluster.json", fleetPath: "fleet.json",
				coordinator: true, resolveEvery: 3},
			want: []string{"-cluster", "-fleet", "mutually exclusive"},
		},
		{
			what: "cluster node without a checkpoint dir",
			cfg:  config{clusterPath: "cluster.json", nodeName: "n1", resolveEvery: 3},
			want: []string{"-checkpoint-dir", "handoff"},
		},
		{
			what: "coordinator with a checkpoint dir",
			cfg: config{clusterPath: "cluster.json", coordinator: true,
				checkpointDir: "ckpt", resolveEvery: 3},
			want: []string{"-checkpoint-dir"},
		},
		{
			what: "cluster node with single-tenant checkpoint",
			cfg: config{clusterPath: "cluster.json", nodeName: "n1",
				checkpointDir: "ckpt", checkpoint: "tm.ckpt", resolveEvery: 3},
			want: []string{"-checkpoint", "-checkpoint-dir"},
		},
		{
			what: "explicitly set single-tenant flag with -cluster",
			cfg: config{clusterPath: "cluster.json", coordinator: true, method: "vardi",
				resolveEvery: 3, set: map[string]bool{"method": true}},
			want: []string{"-method", "cluster config"},
		},
	}
	for _, tc := range cases {
		err := run(ctx, tc.cfg, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.what)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", tc.what, err, want)
			}
		}
	}
	// The guard must fire from flag parsing to error without building a
	// scenario: a sub-second run() on a config whose scenario (a 150-PoP
	// generated backbone) takes far longer than that to build proves it.
	t0 := time.Now()
	err := run(ctx, config{region: "europe", scenario: "", driftThreshold: 0.1, resolveEvery: 0,
		mode: "replay", cycles: 4}, io.Discard)
	if err == nil {
		t.Fatal("bad combination accepted")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("validation took %v; it must reject before doing real work", d)
	}
}

// writeFleetConfig writes a 4-tenant fleet config for the e2e tests:
// mixed sources and sizes, every tenant finishing its replay quickly.
func writeFleetConfig(t *testing.T, path string) []string {
	t.Helper()
	cfg := fleet.Config{
		Format: fleet.ConfigFormat,
		Tenants: []fleet.TenantSpec{
			{Name: "eu", Source: "europe", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
			{Name: "us", Source: "america", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
			{Name: "lab-noisy", Source: "scenario:noisy:europe:0.05", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
			{Name: "lab-16", Source: "scenario:scaled:16", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
		},
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(cfg.Tenants))
	for i, ten := range cfg.Tenants {
		names[i] = ten.Name
	}
	return names
}

// TestEndToEndFleet boots a 4-tenant fleet daemon, waits for every
// tenant to finish its replay and publish a re-solve, exercises the
// tenant-scoped routes (/tenants, /t/{name}/snapshot, /t/{name}/metrics,
// unknown-tenant 404), kills the daemon, and restarts it against the
// same -checkpoint-dir with an hour-long pace: every restored tenant
// must serve its snapshot immediately.
func TestEndToEndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet end-to-end run is slow; skipped in -short")
	}
	dir := t.TempDir()
	fleetPath := filepath.Join(dir, "fleet.json")
	ckptDir := filepath.Join(dir, "ckpt")
	names := writeFleetConfig(t, fleetPath)

	base, shutdown := startServer(t, config{
		fleetPath: fleetPath, checkpointDir: ckptDir,
		mode: "replay", resolveEvery: 3, // single-tenant flags that must be ignored cleanly
	})

	// /snapshot and /metrics must NOT exist in fleet mode (they are the
	// single-tenant aliases); tenants are addressed under /t/.
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/snapshot in fleet mode gave %d, want 404", resp.StatusCode)
	}

	// Wait until every tenant is serving its final window + re-solve.
	finals := make(map[string]stream.Snapshot, len(names))
	deadline := time.Now().Add(2 * time.Minute)
	for _, name := range names {
		for {
			var snap stream.Snapshot
			code := getJSON(t, fmt.Sprintf("%s/t/%s/snapshot", base, name), &snap)
			if code == http.StatusOK && snap.Interval == 5 && snap.Resolve != nil && snap.ResolveInterval == 5 {
				finals[name] = snap
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never quiesced (last code %d)", name, code)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var m struct {
			Points []stream.MetricPoint `json:"points"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/t/%s/metrics", base, name), &m); code != http.StatusOK || len(m.Points) < 6 {
			t.Fatalf("tenant %s metrics: code %d, %d points", name, code, len(m.Points))
		}
	}

	// Fleet-wide views: /tenants lists all four serving tenants, and
	// /healthz reports per-tenant state with the fleet healthy.
	var tl struct {
		Tenants []fleet.Status `json:"tenants"`
	}
	if code := getJSON(t, base+"/tenants", &tl); code != http.StatusOK || len(tl.Tenants) != len(names) {
		t.Fatalf("/tenants: code %d, %d tenants", code, len(tl.Tenants))
	}
	for _, st := range tl.Tenants {
		if st.State != fleet.StateServing || !st.HaveSnapshot {
			t.Fatalf("tenant %s: state %s, have_snapshot %v after replay end", st.Name, st.State, st.HaveSnapshot)
		}
	}
	var health struct {
		OK      bool           `json:"ok"`
		Tenants []fleet.Status `json:"tenants"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || !health.OK || len(health.Tenants) != len(names) {
		t.Fatalf("healthz: code=%d ok=%v tenants=%d", code, health.OK, len(health.Tenants))
	}

	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, base+"/t/nosuch/snapshot", &e); code != http.StatusNotFound || !strings.Contains(e.Error, "nosuch") {
		t.Fatalf("unknown tenant gave code %d error %q", code, e.Error)
	}
	if code := getJSON(t, base+"/t/eu/teapot", &e); code != http.StatusNotFound {
		t.Fatalf("unknown tenant endpoint gave code %d", code)
	}
	// /t/eu without an endpoint names the missing endpoint, not a
	// (nonexistent) unknown tenant.
	if code := getJSON(t, base+"/t/eu", &e); code != http.StatusNotFound || !strings.Contains(e.Error, "missing endpoint") {
		t.Fatalf("endpointless tenant path gave code %d error %q", code, e.Error)
	}

	shutdown()
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(ckptDir, name+".ckpt")); err != nil {
			t.Fatalf("tenant %s left no checkpoint: %v", name, err)
		}
	}

	// Restart against the same checkpoint dir, paced so slowly nothing
	// new can land: every tenant must serve its restored snapshot on the
	// first request.
	writeSlowFleetConfig(t, fleetPath)
	base2, shutdown2 := startServer(t, config{
		fleetPath: fleetPath, checkpointDir: ckptDir,
		mode: "replay", resolveEvery: 3,
	})
	defer shutdown2()
	for _, name := range names {
		var restored stream.Snapshot
		if code := getJSON(t, fmt.Sprintf("%s/t/%s/snapshot", base2, name), &restored); code != http.StatusOK {
			t.Fatalf("restarted tenant %s dark: code %d, want 200 immediately", name, code)
		}
		want := finals[name]
		if restored.Version < want.Version || restored.Interval != want.Interval {
			t.Fatalf("tenant %s restored version %d interval %d, want >= %d / %d",
				name, restored.Version, restored.Interval, want.Version, want.Interval)
		}
		if restored.Resolve == nil {
			t.Fatalf("tenant %s lost its re-solve across the restart", name)
		}
		for p := range want.Mean {
			if restored.Mean[p] != want.Mean[p] {
				t.Fatalf("tenant %s restored mean differs at demand %d", name, p)
			}
		}
	}
	var tl2 struct {
		Tenants []fleet.Status `json:"tenants"`
	}
	getJSON(t, base2+"/tenants", &tl2)
	for _, st := range tl2.Tenants {
		if !st.Restored {
			t.Fatalf("tenant %s status does not report the restore", st.Name)
		}
	}
}

// writeSlowFleetConfig rewrites the fleet config with an hour-long pace
// so the restarted daemon cannot consume anything new during the test.
func writeSlowFleetConfig(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fleet.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Tenants {
		cfg.Tenants[i].Pace = "1h"
	}
	out, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
