package main

// metricDef declares one reported metric. The end-to-end and per-layer
// lists of BENCHMARK.json are exactly the streaming workloads' e2e and
// layer metrics below (TestCatalogueMatchesBenchmarkJSON holds them
// together).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	e2e    bool   // end-to-end (untraced pass); otherwise per-layer (traced pass)
}

// streamMetrics is what every streaming workload reports. A layer that a
// workload bypasses reports 0 (no work, no time).
var streamMetrics = []metricDef{
	{"setup_s", "s", "lower", true},
	{"freshness_p50_ms", "ms", "lower", true},
	{"rss_peak_mb", "MB", "lower", true},
	{"estimate_mre", "ratio", "lower", true},

	// The tails, poll latency and CPU per interval are reported with the
	// layers: their run-to-run spread on a shared 2-core machine is too
	// wide to gate on (see README.md).
	{"freshness_p99_ms", "ms", "lower", false},
	{"read_p50_ms", "ms", "lower", false},
	{"read_p99_ms", "ms", "lower", false},
	{"cpu_ms_per_interval", "ms", "lower", false},
	{"gen.intervals", "count", "higher", false},
	{"gen.late_p99_ms", "ms", "lower", false},
	{"collector.ingest_us_per_interval", "us", "lower", false},
	{"stream.consume_ms_p50", "ms", "lower", false},
	{"stream.consume_ms_p99", "ms", "lower", false},
	{"stream.skipped_intervals", "count", "lower", false},
	{"stream.swaps", "count", "higher", false},
	{"stream.post_swap_iterations_mean", "count", "lower", false},
	{"stream.checkpoint_bytes", "bytes", "lower", false},
	{"stream.checkpoint_ms_p50", "ms", "lower", false},
	{"fleet.queue_wait_ms_p50", "ms", "lower", false},
	{"fleet.queue_wait_ms_p99", "ms", "lower", false},
	{"fleet.superseded_share", "ratio", "lower", false},
	{"fleet.resolves_per_interval", "ratio", "lower", false},
	{"fleet.pending_max", "count", "lower", false},
	{"solver.resolve_ms_p50", "ms", "lower", false},
	{"solver.resolve_ms_p99", "ms", "lower", false},
	{"solver.iterations_mean", "count", "lower", false},
	{"solver.warm_share", "ratio", "higher", false},
	{"serve.observe_ms_p50", "ms", "lower", false},
	{"serve.observe_ms_p99", "ms", "lower", false},
	{"serve.encode_fanout_ms_p50", "ms", "lower", false},
	{"serve.encode_fanout_ms_p99", "ms", "lower", false},
	{"serve.body_bytes_mean", "bytes", "lower", false},
	{"serve.delta_fallback_share", "ratio", "lower", false},
	{"serve.not_modified_share", "ratio", "higher", false},
	{"serve.shed_waiters", "count", "lower", false},
	{"serve.dropped_subscribers", "count", "lower", false},
	{"http.reads", "count", "higher", false},
	{"http.conditional_ms_p50", "ms", "lower", false},
	{"http.conditional_ms_p99", "ms", "lower", false},
	{"http.delta_ms_p50", "ms", "lower", false},
	{"http.delta_ms_p99", "ms", "lower", false},
	{"http.full_ms_p50", "ms", "lower", false},
	{"http.full_ms_p99", "ms", "lower", false},
	{"http.sse_deliver_ms_p50", "ms", "lower", false},
	{"http.bytes_per_read", "bytes", "lower", false},
	{"cluster.upstream_ms_p50", "ms", "lower", false},
	{"cluster.upstream_ms_p99", "ms", "lower", false},
	{"cluster.hop_ms_p50", "ms", "lower", false},
	{"obs.scrape_ms_p50", "ms", "lower", false},
	{"goruntime.gc_cycles", "count", "lower", false},
	{"goruntime.gc_pause_ms", "ms", "lower", false},
	{"goruntime.alloc_mb_per_s", "MB/s", "lower", false},
	{"sparse.mulvec_ns", "ns", "lower", false},
	{"sparse.mulvect_ns", "ns", "lower", false},
	{"sparse.mulvec_flops", "count", "lower", false},
	{"sparse.mulvec_bytes", "bytes", "lower", false},
	{"trace.samples", "count", "higher", false},
	{"trace.untraced_share", "ratio", "lower", false},
	{"trace.overhead_share", "ratio", "lower", false},
}

// batchMetrics is what batch-scale100 reports: the offline path has no
// freshness or read latency, so it carries its own end-to-end set and is
// run by tmperf itself rather than listed in BENCHMARK.json.
var batchMetrics = []metricDef{
	{"setup_s", "s", "lower", true},
	{"batch_s", "s", "lower", true},
	{"batch_mre", "ratio", "lower", true},
	{"cpu_ms_per_interval", "ms", "lower", true},
	{"rss_peak_mb", "MB", "lower", true},

	{"core.gravity_s", "s", "lower", false},
	{"core.entropy_s", "s", "lower", false},
	{"core.vardi_s", "s", "lower", false},
	{"core.entropy_iterations", "count", "lower", false},
	{"core.vardi_iterations", "count", "lower", false},
	{"sparse.mulvec_ns", "ns", "lower", false},
	{"sparse.mulvect_ns", "ns", "lower", false},
	{"sparse.mulvec_flops", "count", "lower", false},
	{"sparse.mulvec_bytes", "bytes", "lower", false},
	{"goruntime.gc_cycles", "count", "lower", false},
	{"goruntime.gc_pause_ms", "ms", "lower", false},
	{"goruntime.alloc_mb_per_s", "MB/s", "lower", false},
	{"trace.samples", "count", "higher", false},
	{"trace.untraced_share", "ratio", "lower", false},
	{"trace.overhead_share", "ratio", "lower", false},
}

// selectMetrics returns the metrics one pass reports: the end-to-end ones
// untraced, the per-layer ones traced.
func selectMetrics(defs []metricDef, traced bool) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if d.e2e != traced {
			out = append(out, d)
		}
	}
	return out
}
