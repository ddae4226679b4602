package main

import "repro/internal/runner"

// This file is the benchmark's catalogue: every workload and every metric,
// by its normative name. BENCHMARK.json at the repository root declares the
// same names to the driver (catalog_test.go keeps the two in step), and
// README.md explains what each one is expected to move.

const schema = "rrmp-bench/v1"

// Workload names.
const (
	wlStream10k   = "stream10k"
	wlPressure300 = "pressure300"
	wlScale100k   = "scale100k"
	wlSweep600    = "sweep600"
)

// workloadNames is the fixed, sequential execution order of `bench run`.
var workloadNames = []string{wlStream10k, wlPressure300, wlScale100k, wlSweep600}

// End-to-end metric names. Two of them coincide with registered runner
// metric keys, so they are spelled through the registry constants (the
// metrickey analyzer rejects the raw literals).
const (
	mSetupS         = "setup_s"
	mRunS           = "run_s"
	mDeliveriesPerS = "deliveries_per_s"
	mPeakRSSMB      = "peak_rss_mb"
	mDeliveryRatio  = runner.MKDeliveryRatio
	mRecoveryMs     = runner.MKRecoveryMs
	mBufferMsgS     = "buffer_msg_s"
	mFailedFrac     = "failed_frac"
)

// e2eMetric describes one end-to-end metric for `bench compare`.
type e2eMetric struct {
	Name string
	Unit string
	// HigherBetter is the metric's good direction.
	HigherBetter bool
	// Bound is how much worse the candidate may read before the row is a
	// regression: a share of the base value, or an absolute difference
	// when Abs is set.
	Bound float64
	Abs   bool
}

// e2eMetrics is the end-to-end catalogue, in report order. The bounds are
// sized from the seed's measured noise (README, "How the bounds were
// sized"): consecutive runs of one binary differ by up to 22% in host time
// on the 2-core reference host, and the simulated metrics vary with the
// inputs across seeds. BENCHMARK.json carries the same numbers.
var e2eMetrics = []e2eMetric{
	{Name: mSetupS, Unit: "s", Bound: 0.25},
	{Name: mRunS, Unit: "s", Bound: 0.25},
	{Name: mDeliveriesPerS, Unit: "1/s", HigherBetter: true, Bound: 0.25},
	{Name: mPeakRSSMB, Unit: "MB", Bound: 0.25},
	{Name: mDeliveryRatio, Unit: "fraction", HigherBetter: true, Bound: 0.002, Abs: true},
	{Name: mRecoveryMs, Unit: "ms", Bound: 0.05},
	{Name: mBufferMsgS, Unit: "msg.s", Bound: 0.15},
	{Name: mFailedFrac, Unit: "fraction", Bound: 0, Abs: true},
}

// omittedE2E lists the declared (workload, metric) gaps: stream10k is
// lossless, so it has no recoveries to time.
var omittedE2E = map[string]map[string]bool{
	wlStream10k: {mRecoveryMs: true},
}

// layerMetric describes one per-layer metric of `bench trace`.
type layerMetric struct {
	Name         string
	Unit         string
	HigherBetter bool
}

// layerMetrics is the per-layer catalogue: `<module>.<metric>`, grouped by
// layer in ladder order (topology -> ... -> exp). Every trace run reports
// every one of them; a metric its workload does not exercise reads 0 (the
// "flat on" predictions of README's table, literally).
var layerMetrics = []layerMetric{
	{"topology.build_s", "s", false},
	{"topology.tree100k_s", "s", false},
	{"topology.viewof_ns", "ns", false},

	{"workload.timeline_s", "s", false},
	{"workload.timeline_ns", "ns", false},

	{"runner.cluster_build_s", "s", false},
	{"runner.cluster_allocs_per_member", "count", false},
	{"runner.cluster_bytes_per_member", "B", false},
	{"runner.schedule_s", "s", false},
	{"runner.collect_s", "s", false},
	{"runner.alloc_mb_per_trial", "MB", false},
	{"runner.allocs_per_event", "count", false},
	{"runner.gc_cpu_frac", "fraction", false},
	{"runner.sweep_cpu_s.rrmp_plain", "s", false},
	{"runner.sweep_cpu_s.rrmp_crash", "s", false},
	{"runner.sweep_cpu_s.rrmp_partition", "s", false},
	{"runner.sweep_cpu_s.rrmp_budget", "s", false},
	{"runner.sweep_cpu_s.rmtp", "s", false},
	{"runner.sweep_cpu_s.workload", "s", false},
	{"runner.sweep_cpu_s.adaptive", "s", false},

	{"eventq.pushpop_ns_d1e3", "ns", false},
	{"eventq.pushpop_ns_d1e5", "ns", false},
	{"eventq.pushpop_ns_d1e6", "ns", false},
	{"eventq.cancel_ns", "ns", false},

	{"sim.loop_s", "s", false},
	{"sim.events", "count", false},
	{"sim.ns_per_event", "ns", false},
	{"sim.events_per_s", "1/s", true},
	{"sim.loop_self_s", "s", false},
	{"sim.serial_ns_per_event", "ns", false},
	{"sim.sharded_ns_per_event", "ns", false},
	{"sim.sharded_window_ns", "ns", false},
	{"sim.shard_speedup", "ratio", true},
	{"sim.shard_efficiency", "ratio", true},

	{"netsim.packets_sent", "count", false},
	{"netsim.packets_dropped", "count", false},
	{"netsim.packets_per_event", "ratio", false},
	{"netsim.loss_calls", "count", false},
	{"netsim.loss_s", "s", false},
	{"netsim.latency_calls", "count", false},
	{"netsim.latency_s", "s", false},
	{"netsim.unicast_ns", "ns", false},
	{"netsim.unicast_allocs", "count", false},
	{"netsim.multicast_ns_per_target", "ns", false},
	{"netsim.hashloss_ns", "ns", false},
	{"netsim.hashburst_ns", "ns", false},

	{"core.policy_calls", "count", false},
	{"core.policy_s", "s", false},
	{"core.displaced_before_calls", "count", false},
	{"core.scan_len", "ratio", false},
	{"core.stores", "count", false},
	{"core.requests", "count", false},
	{"core.evictions_idle", "count", false},
	{"core.evictions_pressure", "count", false},
	{"core.promotions", "count", false},
	{"core.store_idle_ns", "ns", false},
	{"core.store_budget_ns_k16", "ns", false},
	{"core.store_budget_ns_k64", "ns", false},
	{"core.onrequest_ns", "ns", false},
	{"core.store_allocs", "count", false},
	{"core.adaptive_observe_ns", "ns", false},

	{"policy.parse_ns", "ns", false},

	{"rrmp.delivers", "count", false},
	{"rrmp.recoveries", "count", false},
	{"rrmp.local_requests", "count", false},
	{"rrmp.remote_requests", "count", false},
	{"rrmp.repairs", "count", false},
	{"rrmp.searches", "count", false},
	{"rrmp.duplicates", "count", false},
	{"rrmp.useful_repair_ratio", "ratio", true},
	{"rrmp.events_per_delivery", "ratio", false},
	{"rrmp.recovery_ms", "ms", false},
	{"rrmp.trial_s_n100", "s", false},

	{"rmtp.trial_s_n100", "s", false},

	{"gossipfd.tick_ns_n100", "ns", false},
	{"gossipfd.receive_ns_n100", "ns", false},

	{"exp.aggregate_s", "s", false},
	{"exp.report_json_s", "s", false},
	{"exp.pool_efficiency", "ratio", true},

	{"bench.trace_overhead_frac", "fraction", false},
	{"bench.span_cost_ns", "ns", false},
}

// contractE2E is the subset of the end-to-end catalogue BENCHMARK.json
// declares to the driver. recovery_ms and failed_frac are legitimately 0
// (lossless stream10k; a healthy run), which the driver's relative bounds
// cannot express: the driver reads failures from the result line's
// attempted/failed counts, and recovery latency from rrmp.recovery_ms in
// the traced run.
var contractE2E = []string{mSetupS, mRunS, mDeliveriesPerS, mPeakRSSMB, mDeliveryRatio, mBufferMsgS}

func e2eByName(name string) (e2eMetric, bool) {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}
