package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them with each metric's
// direction and bound, and TestSmoke keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every run without --trace: what a user of the
// system sees. For the batch workloads one operation is one whole call
// (pgraph.Build, core.ClusterGPU); for serve-mixed it is one assign request
// of an open-loop phase, timed from when it was due.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},      // median operation latency
	{"ops_per_s", "1/s"},  // batch: operations per second of operation time; serve: median over cycles of closed-loop completions per second
	{"peak_rss_mb", "MB"}, // VmHWM of the benchmark process, read before the checks run
	{"setup_s", "s"},      // median of the run's set-ups (inputs, program state; batch: one cold operation)
}

// exact metrics repeat to the last digit for a given seed, so --compare
// holds them to bound 0 by same-seed pairs. They are not end-to-end metrics
// because serve-mixed has none (it runs no simulated device); untraced runs
// print them on the human-readable lines and carry them in --record files.
var exact = []metricDef{
	{"virtual_s", "sim_s"}, // simulated-K20 time of one operation, the paper's clock
}

// perLayer is printed by every run with --trace 1. Each workload prints every
// name; a layer the workload does not run reads 0. Virtual times are on the
// simulated K20's clock (unit sim_s) and repeat exactly for a given seed.
var perLayer = []metricDef{
	{"virtual_s", "sim_s"},
	{"latency.samples", "count"},
	{"latency.p90_ms", "ms"},
	{"latency.tail_pct", "%"},
	{"latency.tail_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.split_error", "ratio"},

	{"pgraph.candidates", "count"},
	{"pgraph.accept_ratio", "ratio"},
	{"pgraph.edge_recall", "ratio"},
	{"pgraph.filter_virtual_s", "sim_s"},
	{"pgraph.verify_virtual_s", "sim_s"},
	{"pgraph.h2d_virtual_s", "sim_s"},
	{"pgraph.d2h_virtual_s", "sim_s"},
	{"pgraph.h2d_bytes", "B"},
	{"pgraph.d2h_bytes", "B"},
	{"pgraph.filter_wall_s", "s"},
	{"pgraph.verify_wall_s", "s"},

	{"sched.batches", "count"},
	{"sched.lsh_batches", "count"},
	{"sched.plan_drift", "ratio"},
	{"sched.lsh_plan_drift", "ratio"},

	{"gpusim.kernel_launches", "count"},
	{"gpusim.thread_ops", "count"},
	{"gpusim.warp_serial_ops", "count"},
	{"gpusim.global_transactions", "count"},
	{"gpusim.kernel_virtual_s", "sim_s"},
	{"gpusim.wall_ns_per_device_ns", "ratio"},
	{"thrust.sw_divergence", "ratio"},

	{"core.cpu_virtual_s", "sim_s"},
	{"core.gpu_virtual_s", "sim_s"},
	{"core.h2d_virtual_s", "sim_s"},
	{"core.d2h_virtual_s", "sim_s"},
	{"core.h2d_bytes", "B"},
	{"core.d2h_bytes", "B"},
	{"core.pass1_tuples", "count"},
	{"core.pass2_tuples", "count"},
	{"core.pass1_wall_s", "s"},
	{"core.pass2_wall_s", "s"},
	{"core.report_wall_s", "s"},

	{"serve.requests_per_pass", "count"},
	{"serve.pairs_per_request", "count"},
	{"serve.accept_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.insert_p50_ms", "ms"},
	{"serve.insert_p90_ms", "ms"},
	{"serve.generator_late_ms_max", "ms"},
	{"serve.phase1_sent", "count"},
	{"serve.phase1_succeeded", "count"},
	{"serve.phase1_failed", "count"},
	{"serve.phase2_sent", "count"},
	{"serve.phase2_succeeded", "count"},
	{"serve.phase2_failed", "count"},
}
