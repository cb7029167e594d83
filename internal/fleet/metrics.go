package fleet

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
)

// fleetMetrics holds the imperative instruments the engines feed
// through their OnResolve hooks; everything else the fleet exports is
// a scrape-time collector over live state.
type fleetMetrics struct {
	resolveSeconds *obs.Vec // histogram{tenant}
	resolveIters   *obs.Vec // histogram{tenant}
	resolves       *obs.Vec // counter{tenant,warm}
	failures       *obs.Vec // counter{tenant}
}

// onResolve builds one tenant's OnResolve hook. It runs on solving
// goroutines (pool slots), so it only touches the vecs' own locks. A
// failed re-solve only counts as a failure: the latency and iteration
// histograms describe completed solves.
func (m *fleetMetrics) onResolve(tenant string) func(d time.Duration, iters int, warm bool, err error) {
	return func(d time.Duration, iters int, warm bool, err error) {
		if err != nil {
			m.failures.With(tenant).Inc()
			return
		}
		m.resolveSeconds.With(tenant).Observe(d.Seconds())
		m.resolveIters.With(tenant).Observe(float64(iters))
		m.resolves.With(tenant, strconv.FormatBool(warm)).Inc()
	}
}

// registerMetrics declares the fleet's telemetry families on reg
// (called once from New when Options.Metrics is set). Collector
// closures capture the fleet and read live tenant state per scrape, so
// the exporter can never serve stale values and tenants adopted after
// registration appear automatically.
func (f *Fleet) registerMetrics(reg *obs.Registry) {
	f.metrics = &fleetMetrics{
		resolveSeconds: reg.Histogram("tm_resolve_duration_seconds",
			"Wall-clock latency of completed full re-solves.", nil, "tenant"),
		resolveIters: reg.Histogram("tm_resolve_iterations",
			"Solver iterations consumed per completed full re-solve (the quantity warm starts drive down).",
			[]float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 20000}, "tenant"),
		resolves: reg.Counter("tm_resolves_total",
			"Completed full re-solves by warm-vs-cold start.", "tenant", "warm"),
		failures: reg.Counter("tm_resolve_failures_total",
			"Full re-solves the estimator refused (e.g. non-finite loads); the previous estimate stays published.", "tenant"),
	}

	// Fleet-wide scheduler state: queue depth and occupancy of the
	// shared re-solve pool.
	reg.GaugeFunc("tm_fleet_tenants", "Tenants hosted by this process.", nil, func(emit obs.Emit) {
		emit(float64(len(f.Tenants())))
	})
	reg.GaugeFunc("tm_fleet_resolves_pending", "Parked re-solves waiting for a pool slot (fleet queue depth).", nil, func(emit obs.Emit) {
		n := 0
		for _, t := range f.Tenants() {
			if t.eng.ResolvePending() {
				n++
			}
		}
		emit(float64(n))
	})
	reg.GaugeFunc("tm_fleet_resolves_inflight", "Re-solves executing on the shared pool right now.", nil, func(emit obs.Emit) {
		f.mu.Lock()
		n := 0
		for _, busy := range f.inflight {
			if busy {
				n++
			}
		}
		f.mu.Unlock()
		emit(float64(n))
	})
	reg.GaugeFunc("tm_pool_workers", "Helper workers in the shared re-solve pool.", nil, func(emit obs.Emit) {
		emit(float64(f.pool.Workers()))
	})

	// Per-tenant estimation state, read off each engine's newest metric
	// point (LastMetric — no matrix copies at scrape time).
	eachMetric := func(emit obs.Emit, field func(t *Tenant, v uint64, lm lastMetric) (float64, bool)) {
		for _, t := range f.Tenants() {
			v, _, ok := t.eng.Position()
			if !ok {
				continue
			}
			lm, ok := t.eng.LastMetric()
			if !ok {
				continue
			}
			if val, ok := field(t, v, lastMetric(lm)); ok {
				emit(val, t.Name())
			}
		}
	}
	perTenantGauges := []struct {
		name, help string
		field      func(t *Tenant, v uint64, lm lastMetric) (float64, bool)
	}{
		{"tm_snapshot_version", "Newest published snapshot version.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return float64(v), true }},
		{"tm_interval", "Newest polling interval included in the window.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return float64(lm.Interval), true }},
		{"tm_window_intervals", "Intervals aggregated in the sliding window.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return float64(lm.Window), true }},
		{"tm_window_coverage", "LSP coverage fraction of the newest consumed interval.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) {
				return float64(lm.Covered) / float64(t.sc.Net.NumPairs()), true
			}},
		{"tm_drift", "Window drift (relative L1 of consecutive window means) at the newest interval.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return lm.Drift, true }},
		{"tm_topology_epoch", "Active topology epoch (routing hot-swaps applied so far).",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return float64(lm.TopologyEpoch), true }},
		{"tm_gravity_mre", "Incremental gravity estimate's error against the window mean (eq. 8).",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return lm.GravityMRE, true }},
		{"tm_resolve_mre", "Latest full re-solve's error against its window mean.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return lm.ResolveMRE, lm.HasResolve }},
		{"tm_anomaly_active", "1 while the drift-anomaly detector flags the tenant, else 0.",
			func(t *Tenant, v uint64, lm lastMetric) (float64, bool) { return boolGauge(lm.AnomalyActive), true }},
	}
	for _, g := range perTenantGauges {
		field := g.field
		reg.GaugeFunc(g.name, g.help, []string{"tenant"}, func(emit obs.Emit) {
			eachMetric(emit, field)
		})
	}
	reg.CounterFunc("tm_anomalies_total", "Drift-anomaly episodes detected (rising edges of tm_anomaly_active).",
		[]string{"tenant"}, func(emit obs.Emit) {
			eachMetric(emit, func(t *Tenant, v uint64, lm lastMetric) (float64, bool) {
				return float64(lm.Anomalies), true
			})
		})
	reg.CounterFunc("tm_intervals_skipped_total", "Polling intervals dropped for insufficient coverage.",
		[]string{"tenant"}, func(emit obs.Emit) {
			eachMetric(emit, func(t *Tenant, v uint64, lm lastMetric) (float64, bool) {
				return float64(lm.Skipped), true
			})
		})

	// SLO and persistence state come off Status/CheckpointAge rather
	// than the metric ring.
	reg.GaugeFunc("tm_checkpoint_age_seconds", "Age of the last successful checkpoint save.",
		[]string{"tenant"}, func(emit obs.Emit) {
			for _, t := range f.Tenants() {
				if age, ok := t.CheckpointAge(); ok {
					emit(age.Seconds(), t.Name())
				}
			}
		})
	reg.GaugeFunc("tm_tenant_degraded", "1 while any of the tenant's SLO thresholds is exceeded, else 0.",
		[]string{"tenant"}, func(emit obs.Emit) {
			for _, t := range f.Tenants() {
				emit(boolGauge(t.Status().Degraded), t.Name())
			}
		})
}

// lastMetric is a local alias so the collector table reads tersely.
type lastMetric = stream.MetricPoint

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
