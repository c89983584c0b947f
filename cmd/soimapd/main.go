// Command soimapd serves the SOI domino technology mapper over HTTP: a
// bounded worker pool maps submitted circuits (built-in benchmark names
// or inline BLIF/.bench text) and an LRU keyed by strash's structural
// digest answers repeated submissions from cache. A submission opts out
// of strash with its own options.strash_off; there is no server-wide
// switch. See internal/service for the API.
//
// Usage:
//
//	soimapd [-addr :8347] [-workers N] [-queue 64] [-cache 256]
//	        [-timeout 30s] [-max-timeout 5m] [-retention 10m]
//	        [-max-body 16777216] [-max-nodes 200000]
//	        [-peers http://h1:8347,http://h2:8347] [-peer-timeout 200ms]
//	        [-state-dir /var/lib/soimapd] [-journal-fsync interval]
//	        [-log text|json|off] [-debug-addr 127.0.0.1:8348]
//
// Endpoints:
//
//	POST /v1/map       {"circuit": "c880"} or {"blif": "..."} / {"bench": "..."}
//	GET  /v1/jobs/{id} job status and result
//	GET  /v1/jobs/{id}/explain
//	                   per-request cost attribution: cache tier, queue
//	                   wait, per-phase wall time, replica identity
//	GET  /v1/traces/{id}
//	                   one distributed trace as Perfetto-loadable JSON
//	                   (?raw=1: this process's spans for router stitching)
//	GET  /healthz      liveness, uptime and build info
//	GET  /readyz       readiness: 200 while accepting traffic, 503 once a
//	                   drain begins (routers use this to stop routing here)
//	GET  /v1/cache     shared-cache-tier lookup: a peer replica's cached
//	                   result for ?key=, 404 on miss (never computes)
//	GET  /metrics      Prometheus text format, the only metric surface:
//	                   job/cache counters and gauges, latency histograms
//	                   and aggregated DP-engine statistics per algorithm
//
// With -state-dir, results and the job journal persist on disk: a
// restarted replica re-serves finished jobs under their original ids,
// re-admits the jobs a crash cut down mid-flight, and answers repeat
// submissions from the durable store instead of remapping. Corrupt or
// torn records found at boot are quarantined and counted, never served
// and never fatal. -journal-fsync picks the journal's durability point:
// "interval" (default, ~100ms batches), "always" (fsync per record) or
// "off" (the OS decides, results skip fsync too).
//
// With -log, every request is logged through slog with a request id that
// is echoed in X-Request-ID and follows the job through the worker pool
// into the mapper's context. With -debug-addr, a second listener serves
// net/http/pprof (profiles stay off the public API surface). With -peers,
// a job that misses the local result cache consults the listed replicas'
// caches before mapping (see the README "Cluster" section).
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503, the
// -drain-grace window lets routers take the replica out of rotation while
// it still accepts work, then intake stops and queued and running jobs
// finish (up to the drain timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"soidomino/internal/service"
	"soidomino/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soimapd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "mapping workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued-job bound (0 = default)")
	cacheN := flag.Int("cache", 0, "result-cache entries (0 = default)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = default 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on requested deadlines (0 = default 5m)")
	maxBody := flag.Int64("max-body", 0, "request-body byte cap, rejected with 413 (0 = default 16MiB)")
	maxNodes := flag.Int("max-nodes", 0, "submitted-network node cap, rejected with 413 (0 = default 200000)")
	retention := flag.Duration("retention", 0, "how long finished jobs stay pollable before eviction (0 = default 10m)")
	name := flag.String("name", "", "replica identity reported in trace spans and attribution records (empty: \"soimapd\")")
	traceSample := flag.Int("trace-sample", 0, "start a sampled distributed trace on every Nth submission without a traceparent header (0: off; incoming sampled headers are always honored)")
	traceMax := flag.Int("trace-max", 0, "distinct traces retained by the in-memory hub, FIFO (0 = default 64)")
	peers := flag.String("peers", "", "comma-separated base URLs of sibling replicas whose result caches are consulted before mapping (empty: disabled)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-peer cache lookup timeout (0 = default 200ms)")
	peerMaxBody := flag.Int64("peer-max-body", 0, "peer cache-response byte cap, oversized replies rejected (0 = default: the -max-body value)")
	stateDir := flag.String("state-dir", "", "durable state directory: on-disk result store + job journal, recovered on restart (empty: memory only)")
	journalFsync := flag.String("journal-fsync", "", "journal durability: always, interval or off (empty = interval)")
	storeEntries := flag.Int("store-entries", 0, "on-disk result-store entry cap, janitor-evicted oldest-first (0 = default 4x -cache)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown drain budget before canceling jobs")
	drainGrace := flag.Duration("drain-grace", 0, "time between flipping /readyz to 503 and stopping intake, so routers can drain this replica first")
	logMode := flag.String("log", "text", "structured request/job logging: text, json or off")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty: disabled)")
	flag.Parse()

	// Validate the persistence flags up front: a daemon asked to be
	// durable should fail fast on an unusable state dir or a typo'd
	// policy, not boot memory-only and discover it at the first write.
	if _, err := store.ParseSyncPolicy(*journalFsync); err != nil {
		return fmt.Errorf("-journal-fsync: %w", err)
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return fmt.Errorf("-state-dir: %w", err)
		}
		probe := filepath.Join(*stateDir, ".probe")
		if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
			return fmt.Errorf("-state-dir not writable: %w", err)
		}
		os.Remove(probe)
	}

	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		return fmt.Errorf("unknown -log mode %q (want text, json or off)", *logMode)
	}

	svc := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheN,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxBodyBytes:     *maxBody,
		MaxNetworkNodes:  *maxNodes,
		JobRetention:     *retention,
		ReplicaName:      *name,
		TraceSample:      *traceSample,
		TraceMax:         *traceMax,
		Peers:            splitPeers(*peers),
		PeerTimeout:      *peerTimeout,
		PeerMaxBodyBytes: *peerMaxBody,
		StateDir:         *stateDir,
		JournalFsync:     *journalFsync,
		StoreEntries:     *storeEntries,
		Logger:           logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	// The profiling surface gets its own listener (typically loopback):
	// heap/cpu/goroutine profiles should not be reachable through the
	// public API address.
	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: mux}
		go func() {
			log.Printf("soimapd pprof listening on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("soimapd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("soimapd listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /readyz first: a router probing the replica stops sending new
	// work during the grace window while the listener still accepts it,
	// so nothing is routed into a closing socket.
	svc.BeginDrain()
	if *drainGrace > 0 {
		log.Printf("soimapd: signal received, /readyz now 503, grace %s before stopping intake", *drainGrace)
		time.Sleep(*drainGrace)
	}
	log.Printf("soimapd: draining (budget %s)", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			log.Printf("soimapd: pprof shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("soimapd: http shutdown: %v", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("soimapd: drain budget exhausted, in-flight jobs canceled: %v", err)
	}
	log.Printf("soimapd: stopped")
	return nil
}

// splitPeers parses the -peers flag, dropping empty entries so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
