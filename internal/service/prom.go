package service

import (
	"io"
	"net/http"
	"time"

	"soidomino/internal/obs"
)

// handleMetrics serves the Prometheus text exposition translation of the
// server's whole metric surface: the job/cache counters and gauges, the
// per-algorithm latency histograms (with _sum and _count so rate and mean
// are derivable), and the aggregated DP-engine statistics recorded by
// every mapping run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	writePromText(w, s.metrics, time.Since(s.start), obs.Build())
}

// promCounterHelp documents the plain counters for /metrics.
var promCounterHelp = map[string]string{
	"cache_hits":                "Map submissions answered from the canonical-network result cache.",
	"cache_misses":              "Map submissions that had to run the mapping pipeline.",
	"cluster_cache_peer_errors": "Peer result-cache lookups that failed (peer down or malformed reply).",
	"cluster_cache_peer_hits":   "Jobs answered from a peer replica's result cache instead of mapping.",
	"cluster_cache_served":      "Peer result-cache lookups this replica answered from its own cache.",
	"http_panics":               "HTTP handler panics recovered by the middleware (answered 500).",
	"jobs_canceled":             "Jobs canceled by deadline or server shutdown.",
	"jobs_coalesced":            "Submissions coalesced onto an identical in-flight job (singleflight).",
	"jobs_done":                 "Jobs finished successfully.",
	"jobs_evicted":              "Terminal jobs evicted from the job table after JobRetention.",
	"jobs_failed":               "Jobs failed with a mapping or pipeline error.",
	"jobs_journal_compacted":    "Journal records dropped by compaction after their jobs were evicted.",
	"jobs_panicked":             "Jobs failed by a panic recovered inside a worker.",
	"jobs_readmitted":           "Journaled in-flight jobs re-admitted to the queue after a restart.",
	"jobs_recovered":            "Jobs re-created in a terminal state from the journal after a restart.",
	"jobs_rejected":             "Submissions rejected because the queue was full.",
	"jobs_shed":                 "Submissions shed because the estimated queue wait exceeded their deadline.",
	"jobs_submitted":            "Jobs accepted for processing (including cache hits).",
	"key_mismatches":            "Submissions whose router-forwarded cache key differed from the key this replica derived (a forged or stale header).",
	"store_corrupt":             "Corrupt or torn durable-store records detected and quarantined, never served.",
	"store_evicted":             "Durable-store entries evicted to keep the disk tier within StoreEntries.",
	"store_hits":                "Lookups answered by the durable on-disk result store.",
	"store_misses":              "Durable-store lookups that found no usable entry.",
	"store_write_errors":        "Durable-store or journal writes that failed (persistence degraded, job unaffected).",
}

// writePromText renders the metric surface deterministically (families
// and label values in sorted order). Split from the handler so the
// golden exposition-format test can render a fixed fixture.
func writePromText(w io.Writer, m *metrics, uptime time.Duration, build obs.BuildInfo) error {
	p := obs.NewPromWriter(w)

	p.Family("soimapd_build_info", "gauge", "Build identity of the running binary (constant 1).")
	p.Sample("soimapd_build_info", 1,
		"module", build.Module, "version", build.Version,
		"go_version", build.GoVersion, "revision", build.Revision)
	p.Family("soimapd_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample("soimapd_uptime_seconds", uptime.Seconds())

	p.Family("soimapd_jobs_queued", "gauge", "Jobs waiting in the queue.")
	p.Sample("soimapd_jobs_queued", float64(m.jobsQueued.Load()))
	p.Family("soimapd_jobs_running", "gauge", "Jobs occupying a worker.")
	p.Sample("soimapd_jobs_running", float64(m.jobsRunning.Load()))

	for _, name := range counterNames {
		pname := "soimapd_" + name + "_total"
		p.Family(pname, "counter", promCounterHelp[name])
		p.Sample(pname, float64(m.counter(name)))
	}

	lat := m.latencySnapshot()
	if len(lat) > 0 {
		p.Family("soimapd_map_latency_ms", "histogram",
			"Wall-clock latency of successful mapping runs in milliseconds, by algorithm.")
		for _, algo := range obs.SortedKeys(lat) {
			h := lat[algo]
			p.Histogram("soimapd_map_latency_ms", latencyBoundsMS, h.Buckets,
				h.SumMS, h.Count, "algorithm", algo)
		}
	}

	writeEngineProm(p, m.engineSnapshot())
	return p.Err()
}

// writeEngineProm renders the aggregated per-algorithm DP-engine stats.
func writeEngineProm(p *obs.PromWriter, eng map[string]obs.Stats) {
	for _, algo := range obs.SortedKeys(eng) {
		st := eng[algo]
		p.Family("soimapd_dp_nodes_total", "counter", "And/Or nodes processed by the DP across all runs.")
		p.Sample("soimapd_dp_nodes_total", float64(st.Nodes), "algorithm", algo)

		p.Family("soimapd_dp_tuples_total", "counter",
			"DP tuples by outcome: generated by a combine, kept in a table or frontier, or pruned.")
		p.Sample("soimapd_dp_tuples_total", float64(st.TuplesGenerated), "algorithm", algo, "state", "generated")
		p.Sample("soimapd_dp_tuples_total", float64(st.TuplesKept), "algorithm", algo, "state", "kept")
		p.Sample("soimapd_dp_tuples_total", float64(st.TuplesPruned), "algorithm", algo, "state", "pruned")

		p.Family("soimapd_dp_combines_total", "counter",
			"Combine calls by kind (or, and_ordered, and_reordered).")
		p.Sample("soimapd_dp_combines_total", float64(st.CombineOr), "algorithm", algo, "kind", "or")
		p.Sample("soimapd_dp_combines_total", float64(st.CombineAndOrdered), "algorithm", algo, "kind", "and_ordered")
		p.Sample("soimapd_dp_combines_total", float64(st.CombineAndReordered), "algorithm", algo, "kind", "and_reordered")

		p.Family("soimapd_dp_discharge_charges_total", "counter",
			"P-discharge devices charged while evaluating AND combinations.")
		p.Sample("soimapd_dp_discharge_charges_total", float64(st.DPDischargeCharges), "algorithm", algo)

		p.Family("soimapd_dp_cancel_checks_total", "counter",
			"Context cancellation checkpoints observed by the DP loop.")
		p.Sample("soimapd_dp_cancel_checks_total", float64(st.CancelChecks), "algorithm", algo)

		p.Family("soimapd_strash_nodes_total", "counter",
			"Nodes removed by the strash front-end, by reduction kind (merged, folded, dead).")
		p.Sample("soimapd_strash_nodes_total", float64(st.StrashMerged), "algorithm", algo, "kind", "merged")
		p.Sample("soimapd_strash_nodes_total", float64(st.StrashFolded), "algorithm", algo, "kind", "folded")
		p.Sample("soimapd_strash_nodes_total", float64(st.StrashDead), "algorithm", algo, "kind", "dead")

		p.Family("soimapd_dp_frontier_high_water", "gauge",
			"Largest tuple population any single node held in one run.")
		p.Sample("soimapd_dp_frontier_high_water", float64(st.FrontierHighWater), "algorithm", algo)

		p.Family("soimapd_phase_seconds_total", "counter",
			"Pipeline phase wall-clock seconds (strash, decompose, unate, dp, traceback, audit).")
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{
			{"audit", st.Phases.Audit},
			{"decompose", st.Phases.Decompose},
			{"dp", st.Phases.DP},
			{"strash", st.Phases.Strash},
			{"traceback", st.Phases.Traceback},
			{"unate", st.Phases.Unate},
		} {
			p.Sample("soimapd_phase_seconds_total", ph.d.Seconds(), "algorithm", algo, "phase", ph.name)
		}
	}
}
