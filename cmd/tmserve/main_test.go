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
	"repro/internal/leakcheck"
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
// its base URL plus a shutdown function that asserts a clean exit: run
// returns context.Canceled, and every goroutine the daemon started —
// fleet loops, hubs, SSE streams, connections — is gone.
func startServer(t *testing.T, cfg config) (base string, shutdown func()) {
	t.Helper()
	leaked := leakcheck.Check(t)
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
		leaked()
	}
}

// v1Error is the /v1 error envelope.
type v1Error struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// tenantHealth is the /healthz document as far as the tests read it:
// the fleet verdict and every tenant's status.
type tenantHealth struct {
	OK      bool           `json:"ok"`
	Tenants []fleet.Status `json:"tenants"`
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

// fleetConfig writes a fleet config declaring specs into a fresh
// temporary directory and returns a daemon config serving it.
func fleetConfig(t *testing.T, specs ...fleet.TenantSpec) config {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	writeFleet(t, path, specs)
	return config{fleetPath: path}
}

// writeFleet writes a fleet config declaring specs to path.
func writeFleet(t *testing.T, path string, specs []fleet.TenantSpec) {
	t.Helper()
	data, err := json.MarshalIndent(fleet.Config{Format: fleet.ConfigFormat, Tenants: specs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndReplay is the acceptance demo, run on a bare daemon — no
// flags but the listen address, so the one default tenant: a simulated
// deployment (deterministic replay of the European scenario, seed 1,
// 24 intervals at 100 ms) streamed through the engine and served over
// HTTP must (a) emit at least 3 consecutive snapshots with
// monotonically non-increasing gravity estimation error and (b) produce
// an incremental gravity estimate that matches a batch gravity solve
// over the same window to within 1e-9.
func TestEndToEndReplay(t *testing.T) {
	const cycles, window = 24, 6 // the default tenant's
	base, shutdown := startServer(t, config{})
	defer shutdown()

	// Progress gate: versions grow by one per publication (intervals and
	// re-solves both), so version >= cycles means the stream is moving.
	// Which publications those were is established from the tenant's
	// metrics below.
	var progress stream.Snapshot
	if code := getJSON(t, fmt.Sprintf("%s/v1/t/default/snapshot?min_version=%d", base, cycles), &progress); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}

	// (a) The gravity-error trajectory over consumed intervals must hold
	// a non-increasing run of >= 3 consecutive snapshots.
	deadline := time.Now().Add(30 * time.Second)
	var perInterval []float64
	var published uint64 // the newest version the metrics list
	for {
		var m struct {
			Points []stream.MetricPoint `json:"points"`
		}
		getJSON(t, base+"/v1/t/default/metrics", &m)
		perInterval = perInterval[:0]
		seen := -1
		for _, p := range m.Points {
			published = max(published, p.Version)
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

	// All intervals are published now (the metrics loop above saw every
	// one), so the snapshot at the newest version the metrics list
	// covers the final window; re-solve publications never regress the
	// window state. The metrics come from the engine and the snapshot
	// from the hub's cache, which can trail the engine, so long-poll.
	var final stream.Snapshot
	getJSON(t, fmt.Sprintf("%s/v1/t/default/snapshot?min_version=%d", base, published), &final)

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
		getJSON(t, base+"/v1/t/default/snapshot", &snap)
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

	var health tenantHealth
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || !health.OK ||
		len(health.Tenants) != 1 || health.Tenants[0].Version < uint64(cycles) {
		t.Fatalf("healthz: code=%d %+v", code, health)
	}
}

// TestEndToEndLive smoke-tests the UDP/TCP pipeline end to end under the
// daemon: a short collection by a live:europe tenant must publish
// snapshots that the HTTP API serves. Timing-dependent (and lossy), so
// assertions stay coarse.
func TestEndToEndLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live socket pipeline is timing-dependent; skipped in -short")
	}
	base, shutdown := startServer(t, fleetConfig(t, fleet.TenantSpec{
		Name: "default", Source: "live:europe", Cycles: 6,
		Window: -1, MinCoverage: 0.5, ResolveEvery: -1,
	}))
	defer shutdown()

	var snap stream.Snapshot
	if code := getJSON(t, base+"/v1/t/default/snapshot?min_version=2", &snap); code != http.StatusOK {
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
// consumed nothing: the snapshot must 503, bad input must 400, /healthz
// must stay OK, and a pending long-poll must be released promptly when
// the daemon's run context is cancelled (the graceful-shutdown path).
func TestAPIBeforeFirstSnapshot(t *testing.T) {
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	srv := httptest.NewServer(serve.New(runCtx, handlerFleet(t), serve.Options{}).Handler())
	defer srv.Close()
	snapURL := srv.URL + "/v1/t/default/snapshot"

	var e v1Error
	if code := getJSON(t, snapURL, &e); code != http.StatusServiceUnavailable || e.Error.Code != "no_snapshot" {
		t.Fatalf("snapshot with no data gave status %d code %q, want 503 no_snapshot", code, e.Error.Code)
	}
	if code := getJSON(t, snapURL+"?min_version=notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad min_version gave status %d, want 400", code)
	}
	var health tenantHealth
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || !health.OK ||
		len(health.Tenants) != 1 || health.Tenants[0].HaveSnapshot {
		t.Fatalf("healthz before data: code=%d %+v", code, health)
	}

	// A long-poll for a version that will never arrive must be released
	// by run-context cancellation well before its own 30s bound — and
	// answered as a daemon shutdown (503), not mislabeled a timeout.
	pollDone := make(chan struct {
		code int
		err  string
	}, 1)
	go func() {
		var e v1Error
		code := getJSON(t, snapURL+"?min_version=1", &e)
		pollDone <- struct {
			code int
			err  string
		}{code, e.Error.Message}
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
	handler := serve.New(runCtx, handlerFleet(t), serve.Options{}).Handler()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/t/default/snapshot?min_version=1", nil).WithContext(reqCtx)
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
// run with -checkpoint-dir is killed after publishing, and its
// successor — pointed at the same directory, with a pace so slow the
// collector cannot have produced anything yet — must serve the previous
// run's snapshot (same version, same re-solve) immediately on boot.
func TestCheckpointRestart(t *testing.T) {
	ckptDir := t.TempDir()
	ckpt := filepath.Join(ckptDir, "default.ckpt")
	const cycles = 8
	spec := fleet.TenantSpec{Name: "default", Cycles: cycles, Window: 4, ResolveEvery: 2, Pace: "0"}
	cfg := fleetConfig(t, spec)
	cfg.checkpointDir = ckptDir
	base, shutdown := startServer(t, cfg)
	// Wait until the stream is quiescent — every interval consumed and
	// the final cadence re-solve (interval 7) published — so nothing can
	// publish between this read and the shutdown save, and the restored
	// snapshot must match it exactly.
	var last stream.Snapshot
	if code := getJSON(t, fmt.Sprintf("%s/v1/t/default/snapshot?min_version=%d", base, cycles), &last); code != http.StatusOK {
		t.Fatalf("long-poll status %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for last.Interval != cycles-1 || last.ResolveInterval != cycles-1 || last.Resolve == nil {
		if time.Now().After(deadline) {
			t.Fatalf("stream not quiescent before shutdown (interval %d, resolve %d)", last.Interval, last.ResolveInterval)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, base+"/v1/t/default/snapshot", &last)
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
	spec.Pace = "1h"
	cfg = fleetConfig(t, spec)
	cfg.checkpointDir = ckptDir
	base2, shutdown2 := startServer(t, cfg)
	defer shutdown2()
	var restored stream.Snapshot
	if code := getJSON(t, base2+"/v1/t/default/snapshot", &restored); code != http.StatusOK {
		t.Fatalf("restarted daemon dark: the snapshot gave %d, want 200 immediately", code)
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
	var health tenantHealth
	if code := getJSON(t, base2+"/healthz", &health); code != http.StatusOK || !health.OK ||
		len(health.Tenants) != 1 || !health.Tenants[0].HaveSnapshot {
		t.Fatalf("restarted healthz: code=%d %+v", code, health)
	}
}

// TestFlagValidation covers the startup rejection of cluster role
// combinations that would otherwise be silently ignored or fail late,
// with an error that names the flags involved.
func TestFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		what string
		cfg  config
		want []string // substrings the error must carry
	}{
		{
			what: "node role without a cluster config",
			cfg:  config{nodeName: "n1"},
			want: []string{"-cluster"},
		},
		{
			what: "coordinator role without a cluster config",
			cfg:  config{coordinator: true},
			want: []string{"-cluster"},
		},
		{
			what: "cluster without a role",
			cfg:  config{clusterPath: "cluster.json"},
			want: []string{"-node", "-coordinator"},
		},
		{
			what: "node and coordinator together",
			cfg: config{clusterPath: "cluster.json", nodeName: "n1",
				coordinator: true, checkpointDir: "ckpt"},
			want: []string{"-node", "-coordinator", "mutually exclusive"},
		},
		{
			what: "cluster and fleet together",
			cfg:  config{clusterPath: "cluster.json", fleetPath: "fleet.json", coordinator: true},
			want: []string{"-cluster", "-fleet", "mutually exclusive"},
		},
		{
			what: "cluster node without a checkpoint dir",
			cfg:  config{clusterPath: "cluster.json", nodeName: "n1"},
			want: []string{"-checkpoint-dir", "handoff"},
		},
		{
			what: "coordinator with a checkpoint dir",
			cfg:  config{clusterPath: "cluster.json", coordinator: true, checkpointDir: "ckpt"},
			want: []string{"-checkpoint-dir"},
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
	// A tenant spec that breaks a cadence rule is refused by name when
	// the config loads, before any scenario is built: a sub-second run()
	// on a tenant whose source (a 150-PoP generated backbone) takes far
	// longer than that to build proves it.
	t0 := time.Now()
	err := run(ctx, fleetConfig(t, fleet.TenantSpec{Name: "big", Source: "scenario:scaled:150",
		DriftThreshold: 0.1, ResolveEvery: -1}), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "drift_threshold") {
		t.Fatalf("drift threshold without re-solves: err = %v, want one naming drift_threshold", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("validation took %v; it must reject before doing real work", d)
	}
}

// writeFleetConfig writes a 4-tenant fleet config for the e2e tests:
// mixed sources and sizes, every tenant finishing its replay quickly.
func writeFleetConfig(t *testing.T, path string) []string {
	t.Helper()
	specs := []fleet.TenantSpec{
		{Name: "eu", Source: "europe", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
		{Name: "us", Source: "america", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
		{Name: "lab-noisy", Source: "scenario:noisy:europe:0.05", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
		{Name: "lab-16", Source: "scenario:scaled:16", Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3, ResolveMaxIter: 4000, ResolveTol: 1e-5},
	}
	writeFleet(t, path, specs)
	names := make([]string, len(specs))
	for i, ten := range specs {
		names[i] = ten.Name
	}
	return names
}

// TestEndToEndFleet boots a 4-tenant fleet daemon, waits for every
// tenant to finish its replay and publish a re-solve, exercises the
// tenant-scoped routes (/v1/tenants, /v1/t/{name}/snapshot,
// /v1/t/{name}/metrics, unknown-tenant 404), kills the daemon, and restarts it against the
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

	base, shutdown := startServer(t, config{fleetPath: fleetPath, checkpointDir: ckptDir})

	// Tenants are addressed under /v1/t/ only; there is no unversioned
	// snapshot route.
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/snapshot gave %d, want 404", resp.StatusCode)
	}

	// Wait until every tenant is serving its final window + re-solve.
	finals := make(map[string]stream.Snapshot, len(names))
	deadline := time.Now().Add(2 * time.Minute)
	for _, name := range names {
		for {
			var snap stream.Snapshot
			code := getJSON(t, fmt.Sprintf("%s/v1/t/%s/snapshot", base, name), &snap)
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
		if code := getJSON(t, fmt.Sprintf("%s/v1/t/%s/metrics", base, name), &m); code != http.StatusOK || len(m.Points) < 6 {
			t.Fatalf("tenant %s metrics: code %d, %d points", name, code, len(m.Points))
		}
	}

	// Fleet-wide views: /v1/tenants lists all four serving tenants, and
	// /healthz reports per-tenant state with the fleet healthy.
	var tl struct {
		Tenants []fleet.Status `json:"tenants"`
	}
	if code := getJSON(t, base+"/v1/tenants", &tl); code != http.StatusOK || len(tl.Tenants) != len(names) {
		t.Fatalf("/v1/tenants: code %d, %d tenants", code, len(tl.Tenants))
	}
	for _, st := range tl.Tenants {
		if st.State != fleet.StateServing || !st.HaveSnapshot {
			t.Fatalf("tenant %s: state %s, have_snapshot %v after replay end", st.Name, st.State, st.HaveSnapshot)
		}
	}
	var health tenantHealth
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || !health.OK || len(health.Tenants) != len(names) {
		t.Fatalf("healthz: code=%d ok=%v tenants=%d", code, health.OK, len(health.Tenants))
	}

	var e v1Error
	if code := getJSON(t, base+"/v1/t/nosuch/snapshot", &e); code != http.StatusNotFound ||
		e.Error.Code != "unknown_tenant" || !strings.Contains(e.Error.Message, "nosuch") {
		t.Fatalf("unknown tenant gave code %d error %+v", code, e.Error)
	}
	if code := getJSON(t, base+"/v1/t/eu/teapot", &e); code != http.StatusNotFound || e.Error.Code != "unknown_endpoint" {
		t.Fatalf("unknown tenant endpoint gave code %d error %+v", code, e.Error)
	}
	// /v1/t/eu without an endpoint names the missing endpoint, not a
	// (nonexistent) unknown tenant.
	if code := getJSON(t, base+"/v1/t/eu", &e); code != http.StatusNotFound || e.Error.Code != "missing_endpoint" {
		t.Fatalf("endpointless tenant path gave code %d error %+v", code, e.Error)
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
	base2, shutdown2 := startServer(t, config{fleetPath: fleetPath, checkpointDir: ckptDir})
	defer shutdown2()
	for _, name := range names {
		var restored stream.Snapshot
		if code := getJSON(t, fmt.Sprintf("%s/v1/t/%s/snapshot", base2, name), &restored); code != http.StatusOK {
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
	getJSON(t, base2+"/v1/tenants", &tl2)
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
