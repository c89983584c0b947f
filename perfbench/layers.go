package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads that exercise it.
// A workload that does not exercise a layer reports it as 0.
type layerMetric struct {
	Name      string `json:"name"`
	Unit      string `json:"unit"`
	Moves     string `json:"moves"`
	Workloads string `json:"workloads"`
}

var perLayer = []layerMetric{
	// Front-end: blif, strash, canon, decompose, unate.
	{"blif.parse_ms", "ms", "p50_ms, tail_ms on fleet-hit", "fleet-hit fleet-miss"},
	{"strash.run_ms", "ms", "p50_ms, tail_ms on fleet-hit; barely pareto-large", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"strash.nodes_removed", "count", "work done by strash per op", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"canon.hash_ms", "ms", "p50_ms, tail_ms on fleet-hit", "fleet-hit fleet-miss"},
	{"service.key_ms", "ms", "p50_ms, tail_ms on fleet-hit (computed at router and replica)", "fleet-hit fleet-miss"},
	{"decompose.run_ms", "ms", "ops_per_s on paper-tables; barely pareto-large", "paper-tables pareto-large fleet-miss"},
	{"unate.run_ms", "ms", "ops_per_s on paper-tables; barely pareto-large", "paper-tables pareto-large fleet-miss"},
	{"unate.duplicated", "count", "work done by unate per op", "paper-tables pareto-large fleet-miss"},
	// DP: mapper, tuple.
	{"mapper.map_ms", "ms", "ops_per_s, tail_ms on pareto-large and paper-tables; no change on fleet-hit", "paper-tables pareto-large fleet-miss"},
	{"mapper.dp_ms", "ms", "ops_per_s, tail_ms on pareto-large and paper-tables", "paper-tables pareto-large fleet-miss"},
	{"mapper.traceback_ms", "ms", "ops_per_s on pareto-large and paper-tables", "paper-tables pareto-large fleet-miss"},
	{"mapper.tuples_generated", "count", "alloc_mb_per_op, ops_per_s on pareto-large", "paper-tables pareto-large fleet-miss"},
	{"mapper.tuples_kept", "count", "alloc_mb_per_op on pareto-large", "paper-tables pareto-large fleet-miss"},
	{"mapper.frontier_high_water", "count", "alloc_mb_per_op, tail_ms on pareto-large", "paper-tables pareto-large fleet-miss"},
	{"mapper.alloc_mb", "MB", "alloc_mb_per_op on pareto-large and paper-tables", "paper-tables pareto-large fleet-miss"},
	{"mapper.audit_ms", "ms", "ops_per_s on paper-tables and pareto-large", "paper-tables pareto-large fleet-miss"},
	{"runtime.gc_pause_ms", "ms", "ops_per_s on every workload (the collector runs between ops; its wall time counts in ops_per_s, not in p50_ms/tail_ms)", "paper-tables pareto-large fleet-hit fleet-miss"},
	// Encode: service.
	{"service.encode_ms", "ms", "p50_ms on fleet-hit", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"service.encode_kb", "KB", "p50_ms on fleet-hit", "paper-tables pareto-large fleet-hit fleet-miss"},
	// Service: service, service/cache.
	{"service.handle_ms", "ms", "p50_ms on fleet-hit and fleet-miss", "fleet-hit fleet-miss"},
	{"service.queue_wait_ms", "ms", "tail_ms on fleet-miss", "fleet-hit fleet-miss"},
	{"service.run_ms", "ms", "ops_per_s on fleet-miss", "fleet-hit fleet-miss"},
	{"cache.hit_frac", "frac", "p50_ms on fleet-hit (1) and fleet-miss (0)", "fleet-hit fleet-miss"},
	{"service.peer_lookup_ms", "ms", "p50_ms on fleet-miss", "fleet-miss"},
	// Persistence: store.
	{"store.put_ms", "ms", "ops_per_s on fleet-miss, not p50_ms (written behind)", "fleet-miss"},
	{"store.get_ms", "ms", "ops_per_s on fleet-miss", "fleet-miss"},
	{"journal.append_ms.always", "ms", "ops_per_s on fleet-miss under -journal-fsync always", "fleet-miss"},
	{"journal.append_ms.interval", "ms", "ops_per_s on fleet-miss (the default policy)", "fleet-miss"},
	{"journal.append_ms.off", "ms", "ops_per_s on fleet-miss under -journal-fsync off", "fleet-miss"},
	{"store.write_errors", "count", "ok_frac stays 1: write errors never fail a job", "fleet-miss"},
	// Router: cluster.
	{"cluster.route_ms", "ms", "p50_ms on fleet-hit; negligible on fleet-miss", "fleet-hit fleet-miss"},
	// Client: client.
	{"client.retries", "count", "tail_ms on fleet workloads (retries are counted, never hidden)", "fleet-hit fleet-miss"},
	// The tracing itself.
	{"trace.overhead_ops_per_s", "1/s", "untraced minus traced ops_per_s", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"trace.overhead_frac", "frac", "tracing overhead as a share of untraced ops_per_s", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"trace.self_sum_ms", "ms", "sum of the budget's wall self-time rows per op", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"trace.untraced_op_ms", "ms", "mean untraced op wall time the rows should sum to", "paper-tables pareto-large fleet-hit fleet-miss"},
	// The untraced window as measured, before the rescaling by the
	// reference computation (see clock.go): what a caller waits and what
	// the CPU spends, moving with the neighbours' load.
	{"wall.ops_per_s", "1/s", "ops_per_s before rescaling", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"wall.p50_ms", "ms", "p50_ms before rescaling", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"wall.tail_ms", "ms", "tail_ms before rescaling", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"cpu.ops_per_s", "1/s", "ops per second of process CPU time: ops_per_s without waits and parallelism", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"host.ref_ms", "ms", "the reference computation's wall time: the host's speed", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"host.ref_cpu_ms", "ms", "the reference computation's thread CPU time", "paper-tables pareto-large fleet-hit fleet-miss"},
	{"host.steal_frac", "frac", "share of the machine's CPU the hypervisor took during the untraced window", "paper-tables pareto-large fleet-hit fleet-miss"},
}
