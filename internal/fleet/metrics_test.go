package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// TestMetricsRegistrationAndScrape: a fleet built with a registry
// exports the estimation families, the OnResolve hook feeds the
// latency/iteration histograms, and the rendered exposition passes the
// lint gate.
func TestMetricsRegistrationAndScrape(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(runner.NewPool(1), Options{Metrics: reg})
	if _, err := f.Add(TenantSpec{
		Name: "eu", Cycles: 6, Pace: "0", Window: 2, ResolveEvery: 2,
		AnomalyFactor: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	ten, _ := f.Tenant("eu")
	if _, err := ten.WaitVersion(ctx, 6); err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// Re-solves land asynchronously after the last publication; poll the
	// scrape until the hook-fed counter shows one.
	deadline := time.Now().Add(30 * time.Second)
	var body string
	for {
		body = scrape()
		if strings.Contains(body, `tm_resolves_total{tenant="eu",warm="false"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no resolve counted before deadline:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done

	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("fleet scrape fails exposition lint: %v", err)
	}
	for _, want := range []string{
		"# TYPE tm_resolve_duration_seconds histogram",
		`tm_resolve_duration_seconds_bucket{tenant="eu",le="+Inf"}`,
		`tm_resolve_iterations_count{tenant="eu"}`,
		"tm_fleet_tenants 1",
		"# TYPE tm_pool_workers gauge",
		`tm_snapshot_version{tenant="eu"}`,
		`tm_window_intervals{tenant="eu"} 2`,
		`tm_window_coverage{tenant="eu"} 1`,
		`tm_drift{tenant="eu"}`,
		`tm_topology_epoch{tenant="eu"} 0`,
		`tm_gravity_mre{tenant="eu"}`,
		`tm_anomaly_active{tenant="eu"} 0`,
		`tm_anomalies_total{tenant="eu"}`,
		`tm_intervals_skipped_total{tenant="eu"} 0`,
		`tm_tenant_degraded{tenant="eu"} 0`,
		"# TYPE tm_checkpoint_age_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestStatusDegradedSLO: crossing an SLO threshold flips the tenant's
// Status to degraded with a named cause; the checkpoint-age SLO only
// fires once a save has happened.
func TestStatusDegradedSLO(t *testing.T) {
	ckptDir := t.TempDir()
	f := New(runner.NewPool(1), Options{CheckpointDir: ckptDir})
	// drifty: the diurnal demand series moves every interval, so any
	// positive drift crosses this absurdly low SLO.
	if _, err := f.Add(TenantSpec{
		Name: "drifty", Cycles: 6, Pace: "0", Window: 1, ResolveEvery: -1,
		SLOMaxDrift: 1e-12,
	}); err != nil {
		t.Fatal(err)
	}
	// stale: every checkpoint save is immediately older than 1ns.
	if _, err := f.Add(TenantSpec{
		Name: "stale", Cycles: 6, Pace: "0", Window: 1, ResolveEvery: -1,
		SLOMaxCheckpointAge: "1ns",
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	wantDegraded := func(name, causeFragment string) {
		t.Helper()
		ten, _ := f.Tenant(name)
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := ten.Status()
			if st.Degraded && strings.Contains(st.DegradedCause, causeFragment) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s not degraded on %q: %+v", name, causeFragment, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	wantDegraded("drifty", "drift")
	wantDegraded("stale", "checkpoint age")
	cancel()
	<-done

	// Degradation is an operator signal, not a failure: the fleet stays
	// healthy and both tenants keep serving.
	if !f.Healthy() {
		t.Fatal("fleet unhealthy on SLO degradation")
	}
}

// TestValidateTenantsSLO: malformed SLO and anomaly knobs are rejected
// at config-parse time.
func TestValidateTenantsSLO(t *testing.T) {
	for _, bad := range []TenantSpec{
		{Name: "x", SLOMaxDrift: -1},
		{Name: "x", SLOMaxResolveMRE: -0.5},
		{Name: "x", SLOMaxCheckpointAge: "soon"},
		{Name: "x", SLOMaxCheckpointAge: "-5s"},
		{Name: "x", SLOMaxCheckpointAge: "0s"},
		{Name: "x", AnomalyFactor: -2},
		{Name: "x", AnomalyWindow: -1},
		{Name: "x", AnomalyMinDrift: -0.01},
	} {
		if err := ValidateTenants([]TenantSpec{bad}); err == nil {
			t.Errorf("spec %+v accepted, want error", bad)
		}
	}
	ok := TenantSpec{
		Name: "x", SLOMaxDrift: 0.5, SLOMaxResolveMRE: 0.4,
		SLOMaxCheckpointAge: "30s", AnomalyFactor: 4, AnomalyWindow: 8,
		AnomalyMinDrift: 0.05,
	}
	if err := ValidateTenants([]TenantSpec{ok}); err != nil {
		t.Errorf("valid SLO spec rejected: %v", err)
	}
}

// TestResolveFailuresCounted: a re-solve the estimator refused reaches
// the OnResolve hook with its error and is counted in
// tm_resolve_failures_total, not observed as a completed solve.
func TestResolveFailuresCounted(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(runner.NewPool(1), Options{Metrics: reg, AllowEmpty: true})
	hook := f.metrics.onResolve("eu")
	hook(time.Millisecond, 0, false, errors.New("core: Entropy load 3 is +Inf"))
	hook(time.Millisecond, 0, false, errors.New("core: Entropy load 3 is +Inf"))
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, `tm_resolve_failures_total{tenant="eu"} 2`) {
		t.Fatalf("failures not counted:\n%s", body)
	}
	if strings.Contains(body, `tm_resolve_iterations_count{tenant="eu"}`) || strings.Contains(body, `tm_resolves_total{tenant="eu"`) {
		t.Fatalf("failed re-solves observed as completed ones:\n%s", body)
	}
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape fails exposition lint: %v", err)
	}
}
