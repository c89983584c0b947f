// Command soichaos runs a seeded chaos campaign against in-process
// soimapd nodes and checks that every response the service claims
// succeeded is right despite the injected faults: each is re-derived
// locally and byte-compared, then checked against the full oracle suite
// (audit, functional equivalence, discharge prediction, netlist,
// soisim). A response that survives injected faults but is wrong — a
// silent corruption — is a violation and a non-zero exit.
//
// -campaign selects the preset:
//
//   - single (default): one node with every fault point armed takes a
//     sync/async request mix through the retrying client.
//   - cluster: an in-process soirouter fronts three peered replicas with
//     state dirs; one replica is killed a third of the way through and
//     restarted at two thirds, and identical-submission bursts exercise
//     the replicas' coalescing. Every completed response must match,
//     whichever replica — or whichever cache — it came from.
//   - persist: one state-dir node takes load while torn-write, partial
//     journal-append and fsync faults are armed against its durable
//     tier, crashes mid-batch without any graceful shutdown, and
//     restarts over the same dir. The restart must come back warm,
//     re-admit the cut-down jobs under their original ids, quarantine
//     every injected tear, and answer every replayed request
//     byte-identically.
//
// Campaigns are replayable: the seed fixes the fault schedule and the
// request stream, so a finding can be reproduced with -campaign and
// -seed alone. -requests and -p left at 0 take the preset's defaults.
//
// Usage:
//
//	soichaos [-campaign single|cluster|persist] [-seed 1] [-requests N]
//	         [-duration 30s] [-p P] [-workers 2] [-queue 8] [-sim 3] [-v]
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
	campaign := flag.String("campaign", "single", "campaign preset: single, cluster or persist")
	seed := flag.Int64("seed", 1, "campaign seed; fixes the fault schedule and request stream")
	requests := flag.Int("requests", 0, "mapping requests to issue (0 = preset default: single 40, cluster 120, persist 12)")
	duration := flag.Duration("duration", 30*time.Second, "wall-clock bound on the request loop (0 = none)")
	prob := flag.Float64("p", 0, "per-roll fault probability of the armed points (0 = preset default: single 0.1, cluster 0.02, persist 0.25 per torn write)")
	workers := flag.Int("workers", 2, "service worker goroutines per node")
	queue := flag.Int("queue", 8, "service queue depth per node")
	sim := flag.Int("sim", 3, "soisim oracle cycles per verified response (negative skips simulation)")
	verbose := flag.Bool("v", false, "print the per-point fault census")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := chaostest.Run(ctx, chaostest.Config{
		Campaign:   chaostest.Campaign(*campaign),
		Seed:       *seed,
		Requests:   *requests,
		Deadline:   *duration,
		Workers:    *workers,
		QueueDepth: *queue,
		FaultProb:  *prob,
		SimCycles:  *sim,
	})
	if rep == nil {
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
	if err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d violation(s); replay with -campaign %s -seed %d", len(rep.Violations), rep.Campaign, *seed)
	}
	return nil
}
