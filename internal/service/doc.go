// Package service implements soimapd, the concurrent SOI domino mapping
// service: an HTTP/JSON API over the mappers in internal/mapper, backed
// by a bounded worker pool and a canonical-network result cache.
//
// # API
//
//	POST /v1/map       submit a mapping job (inline BLIF/.bench text or a
//	                   built-in benchmark name); synchronous by default,
//	                   {"async": true} enqueues and returns immediately
//	GET  /v1/jobs/{id} job status and, once done, the result
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text format: job/cache counters and
//	                   gauges, latency histograms, DP-engine aggregates
//
// # Caching
//
// Results are cached in an LRU (internal/service/cache) keyed by the
// structural digest of the submitted network (strash.Result.Key, see
// CacheKey) combined with the algorithm and mapper options. Submitting the same circuit twice —
// the common case when sweeping k/W/H, where only the options part of
// the key changes — answers the repeat from the cache without running
// the dynamic program.
//
// # Cancellation
//
// Every job carries a deadline (request timeout_ms, capped by the
// server's MaxTimeout). The worker runs the mapper through its Context
// variants, which observe cancellation at node-processing checkpoints,
// so an expired or abandoned job stops mid-DP instead of running to
// completion.
//
// # Encoding
//
// The job result type (MapResult, encode.go) is shared with the soimap
// CLI's -json flag: for the same circuit, algorithm and options the
// daemon and the CLI produce byte-identical JSON.
package service
