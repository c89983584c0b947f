// Command soirouter fronts a fleet of soimapd replicas as one logical
// mapping service. Submissions are consistent-hash-routed by their
// canonical request key (strash's structural network digest keyed jointly
// with the options encoding — the same key replicas cache results under), so
// identical circuits always land on the same replicas; concurrent
// identical synchronous submissions coalesce into one upstream call.
//
// Usage:
//
//	soirouter -replicas http://h1:8347,http://h2:8347,http://h3:8347
//	          [-addr :8346] [-rf 2] [-probe 2s] [-max-body 16777216]
//	          [-attempts 4] [-strash-off] [-log text|json|off]
//
// Endpoints mirror soimapd:
//
//	POST /v1/map       routed submission; job ids come back namespaced
//	                   "<replica>.<id>"
//	GET  /v1/jobs/{id} polls the replica that owns the job
//	GET  /v1/jobs/{id}/explain
//	                   per-request cost attribution from the owning replica
//	GET  /v1/traces/{id}
//	                   the stitched fleet-wide distributed trace: router
//	                   spans plus every replica's spans for one trace id,
//	                   rendered as Perfetto-loadable JSON
//	GET  /healthz      liveness plus replica readiness counts
//	GET  /readyz       200 while at least one replica is ready
//	GET  /metrics      Prometheus text format (soirouter_* series)
//
// A background prober watches each replica's /readyz on the -probe
// cadence: draining replicas leave rotation before their listeners
// close, and transport failures take a replica out of rotation
// immediately without waiting for the next probe. Mapping is
// deterministic and byte-identical across replicas (DESIGN.md §12), so
// failover never changes an answer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soirouter:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8346", "listen address")
	replicas := flag.String("replicas", "", "comma-separated soimapd base URLs (required)")
	rf := flag.Int("rf", 0, "replication factor: preferred replicas per key before last-resort failover (0 = default 2)")
	probe := flag.Duration("probe", 0, "replica /readyz probe interval (0 = default 2s, negative disables)")
	maxBody := flag.Int64("max-body", 0, "request-body byte cap (0 = default 16MiB)")
	strashOff := flag.Bool("strash-off", false, "force options.strash_off on every routed submission (must match the replicas' -strash-off)")
	attempts := flag.Int("attempts", 0, "per-replica retry attempts before failing over (0 = client default 4)")
	traceSample := flag.Int("trace-sample", 0, "start a sampled distributed trace on every Nth submission without a traceparent header (0: off; incoming sampled headers are always honored)")
	traceMax := flag.Int("trace-max", 0, "distinct traces retained by the in-memory hub, FIFO (0 = default 64)")
	logMode := flag.String("log", "text", "structured logging: text, json or off")
	flag.Parse()

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

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return errors.New("-replicas is required (comma-separated soimapd base URLs)")
	}

	rt, err := cluster.New(cluster.Config{
		Replicas:          urls,
		ReplicationFactor: *rf,
		ProbeInterval:     *probe,
		MaxBodyBytes:      *maxBody,
		StrashOff:         *strashOff,
		TraceSample:       *traceSample,
		TraceMax:          *traceMax,
		Client:            client.Config{MaxAttempts: *attempts},
		Logger:            logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("soirouter listening on %s, fronting %d replicas (rf=%d)", *addr, len(urls), *rf)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("soirouter: signal received, shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("soirouter: http shutdown: %v", err)
	}
	log.Printf("soirouter: stopped")
	return nil
}
