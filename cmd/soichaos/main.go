// Command soichaos runs a seeded chaos campaign against an in-process
// soimapd: every fault point is armed with a random fault kind, a stream
// of mapping requests is pushed through the retrying client, and every
// response the service claims succeeded is re-derived locally and checked
// against the full oracle suite (audit, functional equivalence, discharge
// prediction, netlist, soisim). Any response that survives injected
// faults but is wrong — a silent corruption — is a violation and a
// non-zero exit.
//
// Campaigns are replayable: the seed fixes the fault schedule and the
// request stream, so a finding can be reproduced with -seed alone.
//
// With -cluster, the campaign runs multi-node instead: an in-process
// soirouter fronts -replicas soimapd instances wired into the shared
// result-cache tier, one replica is killed a third of the way through
// the campaign and restarted at two thirds, and identical-submission
// bursts exercise the replicas' coalescing. The same verification
// applies: every completed response must be byte-identical to a clean
// local re-derivation, whichever replica — or whichever cache — it came
// from.
//
// With -persist, the campaign targets the durability layer instead: a
// single soimapd with a state dir takes load while torn-write, partial
// journal-append and fsync faults are armed against its durable tier,
// crashes mid-batch without any graceful shutdown, and restarts over
// the same dir. The restart must come back warm, re-admit the cut-down
// jobs under their original ids, quarantine every injected tear, and
// answer every replayed request byte-identically.
//
// Usage:
//
//	soichaos [-seed 1] [-requests 40] [-duration 30s] [-p 0.1]
//	         [-workers 2] [-queue 8] [-sim 3] [-v]
//	         [-cluster] [-replicas 3] [-rf 2]
//	         [-persist] [-torn-p 0.25]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"soidomino/internal/chaostest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soichaos:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "campaign seed; fixes the fault schedule and request stream")
	requests := flag.Int("requests", 40, "number of mapping requests to push through the service")
	duration := flag.Duration("duration", 30*time.Second, "wall-clock bound on the campaign (0 = none)")
	prob := flag.Float64("p", 0.1, "per-roll fault probability at each fault point")
	workers := flag.Int("workers", 2, "service worker goroutines")
	queue := flag.Int("queue", 8, "service queue depth")
	sim := flag.Int("sim", 3, "soisim oracle cycles per verified response (negative skips simulation)")
	verbose := flag.Bool("v", false, "print the per-point fault census")
	clusterMode := flag.Bool("cluster", false, "run the multi-node campaign: router + replicas with a mid-flight kill and restart")
	replicas := flag.Int("replicas", 3, "cluster mode: replica count")
	rf := flag.Int("rf", 2, "cluster mode: router replication factor")
	persistMode := flag.Bool("persist", false, "run the crash-persistence campaign: state-dir server, torn-write faults, crash mid-load, warm restart")
	tornProb := flag.Float64("torn-p", 0.25, "persist mode: per-write torn-record probability")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *persistMode {
		rep, err := chaostest.RunPersist(ctx, chaostest.PersistConfig{
			Seed:       *seed,
			Requests:   *requests,
			Workers:    *workers,
			QueueDepth: *queue,
			TornProb:   *tornProb,
			SimCycles:  *sim,
		})
		if err != nil {
			return err
		}
		fmt.Println(rep)
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		if len(rep.Violations) > 0 {
			return fmt.Errorf("%d durability violation(s); replay with -persist -seed %d", len(rep.Violations), *seed)
		}
		return nil
	}

	if *clusterMode {
		rep, err := chaostest.RunCluster(ctx, chaostest.ClusterConfig{
			Seed:              *seed,
			Requests:          *requests,
			Deadline:          *duration,
			Replicas:          *replicas,
			ReplicationFactor: *rf,
			Workers:           *workers,
			QueueDepth:        *queue,
			FaultProb:         *prob,
			SimCycles:         *sim,
		})
		if err != nil {
			return err
		}
		fmt.Println(rep)
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		if len(rep.Violations) > 0 {
			return fmt.Errorf("%d silent corruption(s); replay with -cluster -seed %d", len(rep.Violations), *seed)
		}
		return nil
	}

	rep, err := chaostest.Run(ctx, chaostest.Config{
		Seed:       *seed,
		Requests:   *requests,
		Deadline:   *duration,
		Workers:    *workers,
		QueueDepth: *queue,
		FaultProb:  *prob,
		SimCycles:  *sim,
	})
	if err != nil {
		return err
	}

	fmt.Println(rep)
	if *verbose {
		names := make([]string, 0, len(rep.FaultsFired))
		for name := range rep.FaultsFired {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-24s fired %d\n", name, rep.FaultsFired[name])
		}
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d silent corruption(s); replay with -seed %d", len(rep.Violations), *seed)
	}
	return nil
}
