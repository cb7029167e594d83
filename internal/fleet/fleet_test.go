package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/leakcheck"
	"repro/internal/runner"
	"repro/internal/stream"
)

func TestParseConfig(t *testing.T) {
	good := `{"format":1,"tenants":[{"name":"eu","source":"europe"},{"name":"us","source":"america","pace":"10ms"}]}`
	cfg, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[1].Name != "us" {
		t.Fatalf("parsed %+v", cfg)
	}
	bad := map[string]string{
		"wrong format":    `{"format":2,"tenants":[{"name":"eu"}]}`,
		"no tenants":      `{"format":1,"tenants":[]}`,
		"duplicate name":  `{"format":1,"tenants":[{"name":"eu"},{"name":"eu"}]}`,
		"bad name":        `{"format":1,"tenants":[{"name":"e u"}]}`,
		"empty name":      `{"format":1,"tenants":[{"source":"europe"}]}`,
		"bad pace":        `{"format":1,"tenants":[{"name":"eu","pace":"fast"}]}`,
		"negative cycles": `{"format":1,"tenants":[{"name":"eu","cycles":-2}]}`,
		"unknown field":   `{"format":1,"tenants":[{"name":"eu","wibble":3}]}`,
	}
	for what, doc := range bad {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("config with %s accepted", what)
		}
	}
	// A per-tenant checkpoint path is not part of the schema: every
	// tenant checkpoints to <checkpoint-dir>/<name>.ckpt, the path a
	// cluster standby syncs and adopts from.
	if _, err := ParseConfig([]byte(`{"format":1,"tenants":[{"name":"eu","checkpoint":"/x.ckpt"}]}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "checkpoint"`) {
		t.Errorf("per-tenant checkpoint path: err = %v, want unknown field", err)
	}
}

// TestLiveSource: a live: source is any replayable source collected
// through a simulated deployment. A scripted timeline and a zero pace
// are refused by name before anything is built; a valid live tenant is
// added with the deployment's store as its feed, and an unknown inner
// source is named.
func TestLiveSource(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{`"source":"live:scenario:script:x.json"`, "scripted timeline"},
		{`"source":"live:europe","pace":"0"`, "positive pace"},
	} {
		if _, err := ParseConfig([]byte(`{"format":1,"tenants":[{"name":"eu",` + c.spec + `}]}`)); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.spec, err, c.want)
		}
	}
	f := New(runner.NewPool(1), Options{})
	ten, err := f.Add(TenantSpec{Name: "live", Source: "live:europe", Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Scenario().Region != "europe" || ten.feed.Store == nil || ten.feed.Collect == nil {
		t.Fatalf("live tenant on %q, store %v", ten.Scenario().Region, ten.feed.Store)
	}
	if _, err := f.Add(TenantSpec{Name: "x", Source: "live:atlantis"}); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Fatalf("unknown live source gave %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	f := New(runner.NewPool(1), Options{})
	if _, err := f.Add(TenantSpec{Name: "x", Source: "atlantis"}); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Fatalf("unknown source gave %v", err)
	}
	if _, err := f.Add(TenantSpec{Name: "x", Source: "scenario:warp:9"}); err == nil {
		t.Fatal("unknown scenario family accepted")
	}
	if _, err := f.Add(TenantSpec{Name: "x", Method: "psychic"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := f.Add(TenantSpec{Name: "x", Window: -3}); err == nil {
		t.Fatal("window -3 accepted")
	}
	if _, err := f.Add(TenantSpec{Name: "bad name"}); err == nil {
		t.Fatal("unparseable name accepted")
	}
	if _, err := f.AddFeed(TenantSpec{Name: "x"}, nil, Feed{}); err == nil {
		t.Fatal("feed without store/collect accepted")
	}
	if _, err := f.Add(TenantSpec{Name: "ok", Cycles: 2, Pace: "0"}); err != nil {
		t.Fatalf("valid tenant rejected: %v", err)
	}
	if _, err := f.Add(TenantSpec{Name: "ok", Cycles: 2, Pace: "0"}); err == nil {
		t.Fatal("duplicate tenant name accepted at Add")
	}
}

// TestSpecRangesRejected: an out-of-range spec field is refused by name
// wherever a spec enters — ParseConfig, Add, Adopt and AddFeed — before
// any source is built, instead of being replaced by its default in
// stream.New or failing only later on the node that adds the tenant.
// The source is left unresolvable, so an error naming it instead of
// the field shows the check ran too late. with adds the fields a
// cadence rule judges the named field against.
func TestSpecRangesRejected(t *testing.T) {
	cases := []struct{ field, value, with string }{
		{"reg", "-5", ""},
		{"sigma_inv2", "-1", ""},
		{"resolve_max_iter", "-3", ""},
		{"resolve_tol", "-1", ""},
		{"min_coverage", "1.5", ""},
		{"min_coverage", "-0.1", ""},
		{"method", `"bogus"`, ""},
		{"window", "-7", ""},
		{"window", "-1", ""}, // the dropped expanding-window sentinel
		{"window", "1025", ""},
		{"resolve_every", "-2", ""},
		{"resolve_max_every", "-1", ""},
		{"drift_threshold", "-1", ""},
		{"max_waiters", "-1", ""},
		// Drift can only trigger a re-solve that is enabled.
		{"drift_threshold", "0.1", `,"resolve_every":-1`},
		// The cadence backs off only on a drift signal.
		{"resolve_max_every", "12", ""},
	}
	f := New(runner.NewPool(1), Options{})
	for _, c := range cases {
		fields := fmt.Sprintf(`"name":"x","source":"atlantis",%q:%s%s`, c.field, c.value, c.with)
		check := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s with %s = %s: err = %v, want one naming %s", how, c.field, c.value, err, c.field)
			}
		}
		_, err := ParseConfig([]byte(`{"format":1,"tenants":[{` + fields + `}]}`))
		check("ParseConfig", err)
		var spec TenantSpec
		if err := json.Unmarshal([]byte("{"+fields+"}"), &spec); err != nil {
			t.Fatal(err)
		}
		_, err = f.Add(spec)
		check("Add", err)
		_, err = f.Adopt(spec, nil)
		check("Adopt", err)
		_, err = f.AddFeed(spec, nil, Feed{})
		check("AddFeed", err)
	}
	if n := len(f.Tenants()); n != 0 {
		t.Fatalf("%d tenants registered from invalid specs", n)
	}
}

// parkWork drives a tenant's engine directly (outside Fleet.Run) until
// a re-solve is parked, so scheduler internals can be tested white-box.
func parkWork(t *testing.T, ten *Tenant) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ten.eng.Run(ctx, ten.feed.Store) }()
	if err := ten.feed.Collect(ctx); err != nil {
		t.Fatalf("collect: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !ten.eng.ResolvePending() {
		if time.Now().After(deadline) {
			t.Fatal("no re-solve parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

// TestClaimRoundRobinAndCap pins the fairness mechanics: claims rotate
// round-robin across tenants with parked work, a claimed tenant is
// skipped until released (the per-tenant in-flight cap of one), and
// rotation resumes where the previous claim left off.
func TestClaimRoundRobinAndCap(t *testing.T) {
	f := New(runner.NewPool(1), Options{})
	spec := TenantSpec{Cycles: 4, Pace: "0", Window: 2, ResolveEvery: 2}
	var tens []*Tenant
	for _, name := range []string{"a", "b", "c"} {
		s := spec
		s.Name = name
		ten, err := f.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		tens = append(tens, ten)
	}
	for _, ten := range tens {
		parkWork(t, ten)
	}

	if got := f.claimNext(); got != tens[0] {
		t.Fatalf("first claim = %v, want tenant a", got.Name())
	}
	if got := f.claimNext(); got != tens[1] {
		t.Fatalf("second claim = %v, want tenant b (round-robin)", got.Name())
	}
	// a and b are in flight: the cap must skip them even though their
	// parked work is still pending.
	if got := f.claimNext(); got != tens[2] {
		t.Fatalf("third claim = %v, want tenant c", got.Name())
	}
	if got := f.claimNext(); got != nil {
		t.Fatalf("all tenants in flight, but claimed %s", got.Name())
	}
	f.release(tens[1])
	if got := f.claimNext(); got != tens[1] {
		t.Fatalf("after releasing b, claim = %v, want b", got)
	}
	// Consume a's parked work: released but nothing pending -> skipped.
	if !tens[0].eng.TryResolve(context.Background()) {
		t.Fatal("tenant a had no parked work to consume")
	}
	f.release(tens[0])
	f.release(tens[2])
	if got := f.claimNext(); got != tens[2] {
		t.Fatalf("claim = %v, want c (a consumed, b in flight)", got)
	}
}

// waitTenant polls until the tenant's engine has published a snapshot
// satisfying ok, failing the test at the deadline.
func waitTenant(t *testing.T, ten *Tenant, what string, deadline time.Time, ok func(stream.Snapshot) bool) stream.Snapshot {
	t.Helper()
	for {
		if snap, have := ten.Engine().Latest(); have && ok(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			st := ten.Status()
			t.Fatalf("tenant %s: still waiting for %s (state %s, err %q)", ten.Name(), what, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eightTenantSpecs is the acceptance-scale fleet: mixed sizes from the
// 12-PoP backbone to a 100-PoP scaled instance, every re-solve method,
// and every source kind (regions, scenario families, a tmgen file).
func eightTenantSpecs(t *testing.T) []TenantSpec {
	t.Helper()
	// A tmgen-equivalent scenario file exercises the file: source.
	f := New(runner.NewPool(1), Options{})
	ten, err := f.Add(TenantSpec{Name: "seed", Source: "europe", Cycles: 1, Pace: "0"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "europe.json")
	if err := ten.Scenario().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	small := func(name, source, method string) TenantSpec {
		return TenantSpec{
			Name: name, Source: source, Method: method,
			Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 3,
			ResolveMaxIter: 4000, ResolveTol: 1e-5,
		}
	}
	specs := []TenantSpec{
		small("eu-entropy", "europe", "entropy"),
		small("eu-vardi", "europe", "vardi"),
		small("eu-fanout", "europe", "fanout"),
		small("us-bayes", "america", "bayes"),
		small("lab-noisy", "scenario:noisy:europe:0.05", "entropy"),
		small("lab-ecmp", "scenario:ecmp:europe", "entropy"),
		small("file-eu", "file:"+path, "entropy"),
		// The big one: a 100-PoP generated backbone (9900 demands) doing
		// one bounded entropy re-solve on the shared pool.
		{
			Name: "lab-100", Source: "scenario:scaled:100",
			Cycles: 6, Pace: "0", Window: 3, ResolveEvery: 6,
			Method: "entropy", ResolveMaxIter: 300, ResolveTol: 1e-3,
		},
	}
	return specs
}

// TestFleetEightTenants is the PR's acceptance demo: a single fleet
// serves 8 concurrent tenants of mixed sizes (including a scaled:100
// instance) on one shared runner pool; every tenant finishes its
// collection, publishes a full re-solve, keeps its snapshots isolated
// from other tenants' (and from its readers'), and the whole fleet
// restarts from per-tenant checkpoint files under one directory with
// every tenant serving its restored snapshot immediately.
func TestFleetEightTenants(t *testing.T) {
	defer leakcheck.Check(t)()
	if testing.Short() {
		t.Skip("multi-tenant acceptance run is slow; skipped in -short")
	}
	specs := eightTenantSpecs(t)
	ckptDir := t.TempDir()

	f := New(runner.NewPool(0), Options{CheckpointDir: ckptDir})
	for _, s := range specs {
		if _, err := f.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	deadline := time.Now().Add(3 * time.Minute)
	finals := make(map[string]stream.Snapshot, len(specs))
	for _, ten := range f.Tenants() {
		want := ten.Spec().Cycles
		// Quiescence, not just progress: once the re-solve of the final
		// window has published, the tenant has nothing left in flight,
		// so the snapshots recorded here are stable until shutdown.
		snap := waitTenant(t, ten, "final window + re-solve", deadline, func(s stream.Snapshot) bool {
			return s.Interval == want-1 && s.Resolve != nil && s.ResolveInterval == want-1
		})
		if snap.ResolveMethod != stream.Method(ten.Spec().Method) {
			t.Fatalf("tenant %s solved with %q, want %q", ten.Name(), snap.ResolveMethod, ten.Spec().Method)
		}
		if len(snap.Resolve) != ten.Scenario().Net.NumPairs() {
			t.Fatalf("tenant %s re-solve has %d demands, want %d",
				ten.Name(), len(snap.Resolve), ten.Scenario().Net.NumPairs())
		}
		finals[ten.Name()] = snap
	}

	// Snapshot isolation: trash every vector of one tenant's returned
	// snapshot; neither its own next read nor any other tenant's may
	// move. (Engines share snapshot vectors across versions internally,
	// so this is a real aliasing hazard, not a formality.)
	victim, _ := f.Tenant("eu-entropy")
	mut, _ := victim.Engine().Latest()
	for _, v := range [][]float64{mut.Gravity, mut.Mean, mut.Fanouts, mut.Resolve} {
		for i := range v {
			v[i] = -1e18
		}
	}
	for name, want := range finals {
		ten, _ := f.Tenant(name)
		got, _ := ten.Engine().Latest()
		for p := range want.Resolve {
			if got.Resolve[p] != want.Resolve[p] || got.Mean[p] != want.Mean[p] {
				t.Fatalf("tenant %s snapshot changed under another reader's mutation (demand %d)", name, p)
			}
		}
	}

	// All collections have finished (final interval reached), so every
	// tenant must be serving; /healthz-level state must show no failure.
	for _, st := range f.Statuses() {
		if st.State != StateServing {
			t.Fatalf("tenant %s in state %s after collection end (err %q)", st.Name, st.State, st.Error)
		}
		if !st.HaveSnapshot {
			t.Fatalf("tenant %s serving without a snapshot", st.Name)
		}
	}
	if !f.Healthy() {
		t.Fatal("fleet unhealthy with all tenants serving")
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	// Every tenant must have left a checkpoint file behind.
	for _, s := range specs {
		if _, err := os.Stat(filepath.Join(ckptDir, s.Name+".ckpt")); err != nil {
			t.Fatalf("tenant %s left no checkpoint: %v", s.Name, err)
		}
	}

	// Fleet restart: same specs, same checkpoint dir, paced so slowly
	// that nothing new can be consumed — every tenant must serve its
	// restored snapshot immediately, before Run even starts.
	f2 := New(runner.NewPool(0), Options{CheckpointDir: ckptDir})
	for _, s := range specs {
		s.Pace = "1h"
		if _, err := f2.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := f2.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if restored != len(specs) {
		t.Fatalf("restored %d of %d tenants", restored, len(specs))
	}
	for name, want := range finals {
		ten, ok := f2.Tenant(name)
		if !ok {
			t.Fatalf("restored fleet lost tenant %s", name)
		}
		got, have := ten.Engine().Latest()
		if !have {
			t.Fatalf("tenant %s dark after restore", name)
		}
		if got.Version < want.Version || got.Interval != want.Interval {
			t.Fatalf("tenant %s restored to version %d interval %d, want >= %d / %d",
				name, got.Version, got.Interval, want.Version, want.Interval)
		}
		if got.Resolve == nil || got.ResolveInterval < want.ResolveInterval {
			t.Fatalf("tenant %s lost its re-solve across the restart", name)
		}
		for p := range want.Mean {
			if got.Mean[p] != want.Mean[p] {
				t.Fatalf("tenant %s restored mean differs at demand %d", name, p)
			}
		}
		if !ten.Status().Restored {
			t.Fatalf("tenant %s status does not report the restore", name)
		}
	}
}

// TestSharedPoolSerialDrain pins the saturated-pool path: with a pool
// of one worker TryGo never hands work off, so every re-solve runs
// inline on the claiming goroutine — and even then, every tenant's
// re-solves all complete (liveness under round-robin, no starvation).
func TestSharedPoolSerialDrain(t *testing.T) {
	f := New(runner.NewPool(1), Options{})
	const cycles = 5
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := f.Add(TenantSpec{
			Name: name, Cycles: cycles, Pace: "0",
			Window: 2, ResolveEvery: 1, ResolveMaxIter: 2000, ResolveTol: 1e-4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	deadline := time.Now().Add(time.Minute)
	for _, ten := range f.Tenants() {
		waitTenant(t, ten, "a re-solve on the serial pool", deadline, func(s stream.Snapshot) bool {
			return s.Interval == cycles-1 && s.Resolve != nil
		})
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}

// TestRunLifecycle covers the aggregate lifecycle edges: Run without
// tenants fails, Add after Run fails, Run twice fails, and a tenant
// whose collection errors is marked failed without taking the fleet
// (or its neighbors) down.
func TestRunLifecycle(t *testing.T) {
	defer leakcheck.Check(t)()
	if _, err := New(runner.NewPool(1), Options{}).Add(TenantSpec{Name: "x", Cycles: -2}); err == nil {
		t.Fatal("cycles -2 accepted")
	}

	f := New(runner.NewPool(2), Options{})
	if err := f.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "no tenants") {
		t.Fatalf("Run with no tenants gave %v", err)
	}

	f = New(runner.NewPool(2), Options{})
	good, err := f.Add(TenantSpec{Name: "good", Cycles: 3, Pace: "0", ResolveEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	broken, err := f.AddFeed(TenantSpec{Name: "broken"}, good.Scenario(), Feed{
		Store:   collector.NewStore(good.Scenario().Net.NumPairs()),
		Collect: func(ctx context.Context) error { return errors.New("feed exploded") },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	deadline := time.Now().Add(time.Minute)
	waitTenant(t, good, "snapshots despite a failed neighbor", deadline, func(s stream.Snapshot) bool {
		return s.Interval == 2
	})
	for broken.Status().State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatal("broken tenant never marked failed")
		}
		time.Sleep(time.Millisecond)
	}
	if st := broken.Status(); !strings.Contains(st.Error, "feed exploded") {
		t.Fatalf("failed tenant error %q does not carry the cause", st.Error)
	}
	if f.Healthy() {
		t.Fatal("fleet healthy with a failed tenant")
	}
	if _, err := f.Add(TenantSpec{Name: "late"}); err == nil {
		t.Fatal("Add after Run accepted")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	if err := f.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("second Run gave %v", err)
	}
}

// TestRestoreAllRejectsCorruptCheckpoint: a checkpoint that exists but
// cannot be read is an operator problem and must fail loudly, naming
// the tenant, instead of silently starting fresh.
func TestRestoreAllRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "eu.ckpt"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := New(runner.NewPool(1), Options{CheckpointDir: dir})
	if _, err := f.Add(TenantSpec{Name: "eu", Cycles: 2, Pace: "0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RestoreAll(); err == nil || !strings.Contains(err.Error(), `"eu"`) {
		t.Fatalf("corrupt checkpoint gave %v, want an error naming the tenant", err)
	}
}

// TestRunExitsWhenAllTenantsFail pins the fleet-wide failure contract:
// one tenant failing never stops the fleet (TestRunLifecycle), but when
// EVERY tenant has failed Run returns an error carrying the causes —
// which is what makes a one-tenant fleet (tmserve's default tenant)
// exit on failure instead of serving nothing forever.
func TestRunExitsWhenAllTenantsFail(t *testing.T) {
	defer leakcheck.Check(t)()
	f := New(runner.NewPool(1), Options{})
	seed, err := f.Add(TenantSpec{Name: "seed", Cycles: 1, Pace: "0"})
	if err != nil {
		t.Fatal(err)
	}
	sc := seed.Scenario()
	for _, name := range []string{"a", "b"} {
		name := name
		if _, err := f.AddFeed(TenantSpec{Name: name}, sc, Feed{
			Store:   collector.NewStore(sc.Net.NumPairs()),
			Collect: func(ctx context.Context) error { return errors.New(name + " feed down") },
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Tenant "seed" is healthy, so Run must NOT exit on its own...
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	waitTenant(t, seed, "snapshots with both neighbors down", deadline, func(s stream.Snapshot) bool {
		return s.Interval == 0
	})
	select {
	case err := <-done:
		t.Fatalf("Run exited (%v) with a healthy tenant left", err)
	default:
	}
	cancel()
	<-done

	// ...but with every tenant failing, Run exits by itself, naming them.
	f2 := New(runner.NewPool(1), Options{})
	if _, err := f2.AddFeed(TenantSpec{Name: "only"}, sc, Feed{
		Store:   collector.NewStore(sc.Net.NumPairs()),
		Collect: func(ctx context.Context) error { return errors.New("socket melted") },
	}); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f2.Run(context.Background()) }()
	select {
	case err := <-runDone:
		if err == nil || !strings.Contains(err.Error(), "every tenant has failed") || !strings.Contains(err.Error(), "socket melted") {
			t.Fatalf("all-failed Run returned %v, want the fleet-wide failure with its cause", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not exit with every tenant failed")
	}
}
