package main

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (bench_test.go
// fails on any drift), -compare reads its bounds from endToEnd, and
// every later performance claim uses these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a virtual-clock metric: a pure function of the
	// schedule, so two records of one seed must agree to the last bit.
	exact bool
}

// endToEnd are the metrics a user of the engine sees, reported for every
// workload. Bound is the share of the baseline's median by which the
// metric may worsen before -compare (and the driver) call a regression;
// it also has to cover the metric's spread across seeds, which is why
// the virtual-clock metrics carry a small bound here and are compared
// exactly only between records of one seed.
var endToEnd = []metricDef{
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10},
	{Name: "rows_per_s_par", Unit: "rows/s", Better: "higher", Bound: 0.12},
	{Name: "allocs_per_row", Unit: "1/row", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_row", Unit: "B/row", Better: "lower", Bound: 0.05},
	{Name: "retained_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "virtual_makespan_s", Unit: "virtual_s", Better: "lower", Bound: 0.04, exact: true},
	{Name: "virtual_cost_usd", Unit: "usd", Better: "lower", Bound: 0.04, exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced phase, grouped by
// the module they measure. They carry no bound: counts repeat exactly
// and may carry a claim as counts; *_est and *_residual_s explain a
// claim but never carry one (bench/README.md).
var perLayer = []metricDef{
	// workload: generators and driver code.
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "workload.gen_calls", Unit: "count", Better: "lower"},
	{Name: "workload.driver_s", Unit: "s", Better: "lower"},
	// rdd narrow closures and egress boxing.
	{Name: "rdd.narrow_s", Unit: "s", Better: "lower"},
	{Name: "rdd.narrow_rows", Unit: "rows", Better: "lower"},
	{Name: "rdd.egress_ns_per_row", Unit: "ns/row", Better: "lower"},
	// rdd keyed kernels: map-side combine and reduce-side operators.
	{Name: "rdd.combine_s", Unit: "s", Better: "lower"},
	{Name: "rdd.combine_rows_in", Unit: "rows", Better: "lower"},
	{Name: "rdd.combine_rows_out", Unit: "rows", Better: "lower"},
	{Name: "rdd.combine_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rdd.reduce_s", Unit: "s", Better: "lower"},
	{Name: "rdd.reduce_rows_in", Unit: "rows", Better: "lower"},
	// rdd scatter and concat, replayed.
	{Name: "rdd.rows_shuffled", Unit: "rows", Better: "lower"},
	{Name: "rdd.scatter_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "rdd.scatter_s_est", Unit: "s", Better: "lower"},
	{Name: "rdd.concat_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "rdd.concat_s_est", Unit: "s", Better: "lower"},
	// rdd reference evaluation: the floor with no scheduler.
	{Name: "rdd.evallocal_s", Unit: "s", Better: "lower"},
	// exec simulation thread.
	{Name: "exec.step_self_s", Unit: "s", Better: "lower"},
	{Name: "exec.sched_residual_s", Unit: "s", Better: "lower"},
	{Name: "exec.tasks", Unit: "count", Better: "lower"},
	{Name: "exec.us_per_task", Unit: "us", Better: "lower"},
	{Name: "exec.tasks_killed", Unit: "count", Better: "lower"},
	{Name: "exec.recomputed_parts", Unit: "count", Better: "lower"},
	{Name: "exec.recompute_frac", Unit: "ratio", Better: "lower"},
	{Name: "exec.testbed_build_s", Unit: "s", Better: "lower"},
	// exec state plane.
	{Name: "exec.cache_hits", Unit: "count", Better: "higher"},
	{Name: "exec.cache_misses", Unit: "count", Better: "lower"},
	{Name: "exec.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.evict_to_disk", Unit: "count", Better: "lower"},
	{Name: "exec.shuffle_remote_bytes", Unit: "B", Better: "lower"},
	{Name: "exec.shuffle_local_bytes", Unit: "B", Better: "higher"},
	{Name: "exec.job_latency_p50_s", Unit: "virtual_s", Better: "lower"},
	// exec worker pool, from the parallel samples.
	{Name: "exec.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "exec.rounds", Unit: "count", Better: "lower"},
	{Name: "exec.round_wall_s", Unit: "s", Better: "lower"},
	{Name: "exec.worker_busy_s", Unit: "s", Better: "lower"},
	{Name: "exec.pool_util", Unit: "ratio", Better: "higher"},
	// simclock event queue.
	{Name: "simclock.events", Unit: "count", Better: "lower"},
	{Name: "simclock.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simclock.queue_s_est", Unit: "s", Better: "lower"},
	{Name: "simclock.step_p99_us", Unit: "us", Better: "lower"},
	// obs tracer.
	{Name: "obs.trace_events", Unit: "count", Better: "lower"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},
	{Name: "obs.ns_per_emit", Unit: "ns", Better: "lower"},
	{Name: "obs.emit_s_est", Unit: "s", Better: "lower"},
	// dfs store.
	{Name: "dfs.puts", Unit: "count", Better: "lower"},
	{Name: "dfs.gets", Unit: "count", Better: "lower"},
	{Name: "dfs.bytes_written", Unit: "B", Better: "lower"},
	{Name: "dfs.bytes_read", Unit: "B", Better: "lower"},
	{Name: "dfs.peak_bytes", Unit: "B", Better: "lower"},
	{Name: "dfs.ns_per_put", Unit: "ns", Better: "lower"},
	// ckpt fault-tolerance manager.
	{Name: "ckpt.tasks", Unit: "count", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	{Name: "ckpt.marks", Unit: "count", Better: "lower"},
	{Name: "ckpt.gc_removed", Unit: "count", Better: "higher"},
	{Name: "ckpt.reads", Unit: "count", Better: "lower"},
	{Name: "ckpt.tau_s", Unit: "virtual_s", Better: "higher"},
	{Name: "ckpt.delta_s", Unit: "virtual_s", Better: "lower"},
	{Name: "ckpt.tax_frac", Unit: "ratio", Better: "lower"},
	// cluster manager.
	{Name: "cluster.revocations", Unit: "count", Better: "lower"},
	{Name: "cluster.nodes_joined", Unit: "count", Better: "lower"},
	{Name: "cluster.recovery_p50_s", Unit: "virtual_s", Better: "lower"},
	// serverless backend.
	{Name: "serverless.invocations", Unit: "count", Better: "lower"},
	{Name: "serverless.cold_starts", Unit: "count", Better: "lower"},
	{Name: "serverless.cold_start_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serverless.gb_seconds", Unit: "GB-s", Better: "lower"},
	{Name: "serverless.ext_read_bytes", Unit: "B", Better: "lower"},
	{Name: "serverless.ext_write_bytes", Unit: "B", Better: "lower"},
	// tracing itself.
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}
