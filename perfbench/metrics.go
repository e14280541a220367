package main

// metricDef declares one metric of BENCHMARK.json. metrics_test.go
// checks that the two agree.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload a change to this layer should move.
	moves string
}

// endToEnd are what a user of the library or the daemon sees, with the
// bound each may worsen by. Every workload prints every one:
//   - edges_per_s counts input edges of verified results per second;
//     goodput_per_s counts the verified results themselves.
//   - ok_frac is 1 - fail_frac: verified results over attempted
//     operations, refused and failed ones included.
//   - forests and rounds are deterministic for a seed: the paper's
//     quality and complexity measures. A speed change must not move them.
//
// serve-mix's p99 and the memory high-water mark are per-layer metrics:
// across ten seeds they spread by 28-39% (p99) and 25-30% (be-road's
// mark), more than any bound a regression gate may use.
var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "edges_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "goodput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ok_frac", unit: "frac", better: "higher", bound: 0.01},
	{name: "forests", unit: "count", better: "lower", bound: 0.01},
	{name: "rounds", unit: "count", better: "lower", bound: 0.01},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	dr = "decompose-road"
	br = "be-road"
	sm = "serve-mix"
)

// perLayer come from the traced run. A layer a workload never reaches
// reads 0 there (core and netdecomp on be-road; service, dynamic and
// the generator's lag on the batch loops).
var perLayer = []metricDef{
	{name: "core.algorithm2_ms", unit: "ms", better: "lower", moves: "latency_p50_ms, edges_per_s on " + dr + "; service.latency_p99_ms on " + sm + " (cold jobs); nothing on " + br},
	{name: "core.clusters_ms", unit: "ms", better: "lower", moves: "latency_p50_ms, edges_per_s on " + dr + "; service.latency_p99_ms on " + sm + " (cold jobs); nothing on " + br},
	{name: "core.clusters", unit: "count", better: "lower", moves: "latency_p50_ms on " + dr},
	{name: "core.augmented", unit: "count", better: "higher", moves: "latency_p50_ms on " + dr},
	{name: "core.augment_fail", unit: "count", better: "lower", moves: "latency_p50_ms on " + dr},
	{name: "core.useful_frac", unit: "frac", better: "higher", moves: "latency_p50_ms, edges_per_s on " + dr},
	{name: "core.mean_seq_len", unit: "count", better: "lower", moves: "latency_p50_ms, edges_per_s on " + dr},
	{name: "core.leftover_edges", unit: "count", better: "lower", moves: "forests on " + dr},
	{name: "core.rounds", unit: "count", better: "lower", moves: "rounds on " + dr},
	{name: "core.share", unit: "frac", better: "lower", moves: "caps any core gain on " + dr},
	{name: "netdecomp.ms", unit: "ms", better: "lower", moves: "latency_p50_ms on " + dr},
	{name: "netdecomp.rounds", unit: "count", better: "lower", moves: "rounds on " + dr},
	{name: "netdecomp.share", unit: "frac", better: "lower", moves: "caps any netdecomp gain on " + dr},
	{name: "hpartition.ms", unit: "ms", better: "lower", moves: "edges_per_s on " + br},
	{name: "hpartition.rounds", unit: "count", better: "lower", moves: "rounds on " + br},
	{name: "hpartition.share", unit: "frac", better: "lower", moves: "caps any hpartition gain on " + br},
	{name: "verify.partial_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on " + dr + " (a little)"},
	{name: "verify.forest_ms", unit: "ms", better: "lower", moves: "edges_per_s on " + br + "; latency_p50_ms on " + dr + " (a little)"},
	{name: "verify.diameter_ms", unit: "ms", better: "lower", moves: "edges_per_s on " + br + " (a lot); latency_p50_ms on " + dr + " (a little)"},
	{name: "verify.share", unit: "frac", better: "lower", moves: "caps any verify gain on " + br},
	{name: "graph.decode_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "service.upload_ms", unit: "ms", better: "lower", moves: "setup_s on " + sm},
	{name: "algo.encode_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on " + sm},
	{name: "algo.encode_kb", unit: "KB", better: "lower", moves: "latency_p50_ms on " + sm},
	{name: "service.submit_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on " + sm},
	{name: "service.hit_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on " + sm},
	{name: "service.response_kb", unit: "KB", better: "lower", moves: "latency_p50_ms on " + sm},
	{name: "service.latency_p99_ms", unit: "ms", better: "lower", moves: "nothing bounded: the p99 of latency_p50_ms's samples on " + sm},
	{name: "service.queue_ms_p50", unit: "ms", better: "lower", moves: "service.latency_p99_ms, goodput_per_s on " + sm},
	{name: "service.queue_ms_p90", unit: "ms", better: "lower", moves: "service.latency_p99_ms on " + sm},
	{name: "service.run_ms_p50", unit: "ms", better: "lower", moves: "service.latency_p99_ms, goodput_per_s on " + sm},
	{name: "service.cold_ms_p90", unit: "ms", better: "lower", moves: "service.latency_p99_ms on " + sm},
	{name: "service.cache_hit_frac", unit: "frac", better: "higher", moves: "latency_p50_ms on " + sm + " (fixed by the mix)"},
	{name: "service.dedup_frac", unit: "frac", better: "higher", moves: "goodput_per_s on " + sm},
	{name: "service.rejected", unit: "count", better: "lower", moves: "ok_frac, service.latency_p99_ms on " + sm},
	{name: "service.cpu_frac", unit: "frac", better: "lower", moves: "service.latency_p99_ms, goodput_per_s on " + sm},
	{name: "service.mutate_ms_p50", unit: "ms", better: "lower", moves: "service.latency_p99_ms on " + sm},
	{name: "dynamic.repair_ms_p50", unit: "ms", better: "lower", moves: "service.latency_p99_ms on " + sm},
	{name: "dist.msgs", unit: "count", better: "lower", moves: "nothing: no speed change may move it"},
	{name: "dist.bits", unit: "count", better: "lower", moves: "nothing: no speed change may move it"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", moves: "nothing bounded: the memory high-water mark of the working process"},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", moves: "runtime.peak_rss_mb and latency_p50_ms on every workload"},
	{name: "runtime.gc_frac", unit: "frac", better: "lower", moves: "runtime.peak_rss_mb and latency_p50_ms on every workload"},
	{name: "load.offered_per_s", unit: "1/s", better: "higher", moves: "nothing: the generator's health"},
	{name: "load.achieved_per_s", unit: "1/s", better: "higher", moves: "nothing: the generator's health"},
	{name: "load.lag_p99_ms", unit: "ms", better: "lower", moves: "nothing: the generator's health"},
	{name: "traced.coverage", unit: "frac", better: "higher", moves: "nothing: the traced pass's self-check"},
	{name: "traced.overhead_frac", unit: "frac", better: "lower", moves: "nothing: the cost of tracing"},
}
