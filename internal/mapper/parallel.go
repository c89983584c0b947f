package mapper

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
)

// parallelMinNodes is the auto-mode (Workers == 0) cutoff: below it the
// pool's setup and scheduling overhead exceeds the DP work, so small
// networks run sequentially. An explicit Workers > 1 is always honored —
// tests and the par-determinism gate rely on exercising the pool on tiny
// circuits.
const parallelMinNodes = 64

// effectiveWorkers resolves Options.Workers against the run: 0 means
// GOMAXPROCS (sequential below parallelMinNodes), 1 is the sequential
// engine, and any value is capped at the node count. A budgeted Pareto
// run is forced sequential: TupleBudget degradation depends on the
// cumulative kept-tuple count in node-completion order, which a pool
// would make schedule-dependent — the one mode where parallel execution
// cannot be byte-identical.
func (e *engine) effectiveWorkers() int {
	if e.cfg.Pareto && e.cfg.TupleBudget > 0 {
		return 1
	}
	n := e.net.Len()
	w := e.cfg.Workers
	if w == 0 {
		if n < parallelMinNodes {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return max(w, 1)
}

// nodeError pairs a failing node with its error so the pool can report
// deterministically-chosen failures (lowest node id, echo cancellations
// suppressed). Which error a failing run surfaces is best-effort — the
// determinism contract covers successful results only.
type nodeError struct {
	id  int
	err error
}

// processParallel fills the DP tables with a readiness-scheduled worker
// pool: a node becomes runnable the moment every non-leaf fanin's candidate
// slice exists (indegree counting over the fanin DAG — no global level
// barriers), so independent cones map concurrently. Determinism comes
// from the state layout, not from ordering: every per-node entry
// (cands, gate) is written by exactly one task, once, when the node
// completes; all tie-breaking reads only finished fanin candidate
// slices, whose order is fixed by the slot layout, not by which worker
// built them or where its arena put them; each worker fills its own
// scratch slot table and records into a private stats shard and span
// buffer, and the shards are merged — all counters commutative, the
// high-water mark a max — with spans emitted in node order after the
// pool drains.
//
// Memory visibility rides the scheduler itself: a completed node's
// candidate-slice writes happen before its atomic indegree decrements,
// which happen before the ready-channel send that releases the
// dependent, so a running task observes all of its fanins' writes
// without any lock around the shared slices.
func (e *engine) processParallel(workers int) error {
	n := e.net.Len()
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()

	// Every node is a task — including leaves and constants, whose
	// processNode bodies are trivial — so per-node error detection and
	// the CancelChecks stat match the sequential loop exactly. Only
	// And/Or fanins impose ordering: leaves have no DP state to wait on.
	indeg := make([]int32, n)
	dependents := make([][]int32, n)
	for id := range e.net.Nodes {
		node := &e.net.Nodes[id]
		if node.Op != logic.And && node.Op != logic.Or {
			continue
		}
		for _, f := range node.Fanin {
			if e.isLeaf(f) {
				continue
			}
			dependents[f] = append(dependents[f], int32(id))
			indeg[id]++
		}
	}
	ready := make(chan int32, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready <- int32(id)
		}
	}

	var (
		remaining atomic.Int64
		mu        sync.Mutex
		failures  []nodeError
		panicked  any
		wg        sync.WaitGroup
	)
	remaining.Store(int64(n))
	shards := make([]*obs.Stats, workers)
	spanBufs := make([][]obs.Span, workers)
	for w := 0; w < workers; w++ {
		nc := e.newNodeCtx(ctx)
		if e.stats != nil {
			nc.stats = new(obs.Stats)
			shards[w] = nc.stats
		}
		if e.tracer != nil {
			nc.spans = make([]obs.Span, n)
			spanBufs[w] = nc.spans
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic in a worker (e.g. an armed Panic faultpoint) is
			// re-raised on the run's goroutine after the pool drains, so
			// the service's per-job panic isolation still catches it.
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
					cancel()
				}
			}()
			for {
				select {
				case <-ctx.Done():
					return
				case id, ok := <-ready:
					if !ok {
						return
					}
					if err := e.processNode(nc, int(id)); err != nil {
						mu.Lock()
						failures = append(failures, nodeError{int(id), err})
						mu.Unlock()
						cancel()
						return
					}
					for _, p := range dependents[id] {
						if atomic.AddInt32(&indeg[p], -1) == 0 {
							ready <- p
						}
					}
					if remaining.Add(-1) == 0 {
						close(ready)
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, s := range shards {
		e.stats.Merge(s)
	}
	if e.tracer != nil {
		for id := 0; id < n; id++ {
			for _, buf := range spanBufs {
				e.tracer.Emit(buf[id])
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	if len(failures) > 0 {
		sort.Slice(failures, func(i, j int) bool { return failures[i].id < failures[j].id })
		// The first failure cancels the pool, so workers mid-node may
		// record echo cancellations of the internal ctx; prefer a root
		// cause unless the run's own context really was canceled.
		if e.ctx.Err() == nil {
			for _, f := range failures {
				if !errors.Is(f.err, context.Canceled) {
					return f.err
				}
			}
		}
		return failures[0].err
	}
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled: %w", e.cfg.algorithm, err)
	}
	return nil
}
