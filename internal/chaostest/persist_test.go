package chaostest

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPersistSmoke is the in-tree crash-persistence smoke (also run as
// `make persist-smoke`): a server with a state dir takes load with torn
// writes and fsync failures armed against its durable tier, crashes
// mid-batch without any graceful shutdown, and restarts over the same
// dir. The restart must be warm, re-admitted jobs must converge under
// their original ids, injected tears must be quarantined, and every
// replayed request must return byte-identical results.
func TestPersistSmoke(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Campaign:  Persist,
		Seed:      1,
		SimCycles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Done == 0 || rep.Replayed != rep.Done {
		t.Errorf("done=%d replayed=%d: every completed request must replay byte-identically", rep.Done, rep.Replayed)
	}
	if rep.TornInjected == 0 {
		t.Error("the tear schedule never fired — the campaign verified nothing about torn writes")
	}
	if rep.WarmHits == 0 {
		t.Error("no durable-store hits after the restart: the state dir did not make the restart warm")
	}
	if rep.Recovered+rep.Readmitted == 0 {
		t.Error("journal recovery neither re-served nor re-admitted any job")
	}
}

// TestPersistCancelStopsEveryNode: a persist campaign canceled
// mid-stream returns the cancellation and stops its node on the way out
// — no server, worker or connection goroutine outlives Run.
func TestPersistCancelStopsEveryNode(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(300*time.Millisecond, cancel)
	defer stop.Stop()
	rep, err := Run(ctx, Config{Campaign: Persist, Seed: 1, Requests: 100000, SimCycles: -1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Requests == 0 || rep.Requests >= 100000 {
		t.Fatalf("cancel did not land mid-stream: %v", rep)
	}
	settle := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(settle) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the campaign, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
