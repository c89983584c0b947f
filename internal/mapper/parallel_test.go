package mapper

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/tuple"
)

// mapAlgo dispatches to one of the public mappers by name, the same axis
// the par-determinism gate sweeps.
func mapAlgo(ctx context.Context, algo string, n *logic.Network, opt Options) (*Result, error) {
	switch algo {
	case "domino":
		return DominoMapContext(ctx, n, opt)
	case "rs":
		return RSMapContext(ctx, n, opt)
	case "rsdeep":
		return RSMapDeepContext(ctx, n, opt)
	default:
		return SOIDominoMapContext(ctx, n, opt)
	}
}

// countersOf returns the stats with phase timings zeroed: wall-clock is
// the one field legitimately different between engine runs.
func countersOf(s *obs.Stats) obs.Stats {
	c := *s
	c.Phases = obs.PhaseTimes{}
	return c
}

// TestParallelMatchesSequential is the core determinism contract: for
// every circuit × mapper × Pareto mode, the parallel engine's Result
// dump and stats counters are identical to the sequential engine's at
// every worker count. Run under -race by `make par-determinism`.
func TestParallelMatchesSequential(t *testing.T) {
	circuits := []string{"mux", "z4ml", "cordic", "b9"}
	if !testing.Short() {
		circuits = append(circuits, "c880")
	}
	algos := []string{"domino", "rs", "rsdeep", "soi"}
	for _, name := range circuits {
		n := unateBench(t, name)
		for _, algo := range algos {
			for _, pareto := range []bool{false, true} {
				opt := DefaultOptions()
				opt.Pareto = pareto
				opt.Workers = 1
				wantRes, wantStats, err := mapAlgoStats(algo, n, opt)
				if err != nil {
					t.Fatalf("%s/%s pareto=%v: sequential: %v", name, algo, pareto, err)
				}
				for _, workers := range []int{2, 8} {
					opt.Workers = workers
					gotRes, gotStats, err := mapAlgoStats(algo, n, opt)
					if err != nil {
						t.Fatalf("%s/%s pareto=%v workers=%d: %v", name, algo, pareto, workers, err)
					}
					if gotRes.Dump() != wantRes.Dump() {
						t.Errorf("%s/%s pareto=%v workers=%d: result differs from sequential",
							name, algo, pareto, workers)
					}
					if got, want := countersOf(gotStats), countersOf(wantStats); got != want {
						t.Errorf("%s/%s pareto=%v workers=%d: stats differ:\n got %+v\nwant %+v",
							name, algo, pareto, workers, got, want)
					}
				}
			}
		}
	}
}

func mapAlgoStats(algo string, n *logic.Network, opt Options) (*Result, *obs.Stats, error) {
	st := new(obs.Stats)
	res, err := mapAlgo(obs.WithStats(context.Background(), st), algo, n, opt)
	return res, st, err
}

// TestParallelAutoWorkers: Workers == 0 resolves to GOMAXPROCS above the
// small-network cutoff and still matches the explicit sequential run.
func TestParallelAutoWorkers(t *testing.T) {
	n := unateBench(t, "c880") // 800+ nodes, above parallelMinNodes
	opt := DefaultOptions()
	opt.Workers = 1
	want, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 0
	got, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != want.Dump() {
		t.Error("auto-worker result differs from sequential")
	}
}

// TestParallelBudgetedParetoForcedSequential: TupleBudget degradation
// depends on node-completion order, so budgeted Pareto runs must ignore
// Workers — including the Degraded flag and the degraded mapping itself.
func TestParallelBudgetedParetoForcedSequential(t *testing.T) {
	n := unateBench(t, "mux")
	opt := DefaultOptions()
	opt.Pareto = true
	opt.TupleBudget = 50
	opt.Workers = 1
	want, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Degraded {
		t.Fatal("budget 50 should degrade the mux Pareto run; pick a smaller budget")
	}
	opt.Workers = 8
	got, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != want.Dump() || got.Degraded != want.Degraded {
		t.Error("budgeted Pareto run is not worker-count independent")
	}
}

// TestParallelTraceSpansMatchSequential: per-worker span buffers are
// stitched in node order, so the recorded span sequence (names, cats,
// args — everything but wall-clock times and span ids) is identical to
// a sequential run's.
func TestParallelTraceSpansMatchSequential(t *testing.T) {
	n := unateBench(t, "b9")
	spanSeq := func(workers int) []obs.Span {
		tr := obs.NewTracer(1)
		opt := DefaultOptions()
		opt.Workers = workers
		if _, err := SOIDominoMapContext(obs.WithTracer(context.Background(), tr), n, opt); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		spans := tr.Spans()
		for i := range spans {
			spans[i].StartUS, spans[i].DurUS, spans[i].SpanID = 0, 0, ""
		}
		return spans
	}
	want := spanSeq(1)
	if len(want) == 0 {
		t.Fatal("sequential run recorded no spans")
	}
	for _, workers := range []int{2, 8} {
		if got := spanSeq(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: recorded span sequence differs from sequential", workers)
		}
	}
}

// TestParallelCancellation: a canceled context aborts the pool promptly
// with context.Canceled, from either the pre-canceled or mid-run state.
func TestParallelCancellation(t *testing.T) {
	n := unateBench(t, "c880")
	opt := DefaultOptions()
	opt.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SOIDominoMapContext(ctx, n, opt)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got (%v, %v), want nil result and context.Canceled", res, err)
	}
}

// errAfterCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err calls — a deterministic stand-in for "the deadline
// expired mid-run" that pins exactly which checkpoint observes it.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestMidNodeCancellationRegression pins the satellite bugfix: before
// the bounded in-loop checkpoint, the engine polled the context only at
// node boundaries, so a cancellation landing inside a node with a large
// Pareto cross-product went unseen until the node finished. The mux
// Pareto run has a node with > combineCheckInterval combines; sweeping
// the flip point across every checkpoint must (a) abort the run for
// every flip index below the total and (b) hit the in-loop checkpoint
// ("canceled inside node") at least once. Without the in-loop check,
// flip indexes at or past the node count complete instead of aborting.
func TestMidNodeCancellationRegression(t *testing.T) {
	n := unateBench(t, "mux")
	opt := DefaultOptions()
	opt.Pareto = true
	opt.Workers = 1 // deterministic checkpoint order

	// Baseline: count checkpoints on an uncanceled run.
	st := new(obs.Stats)
	if _, err := SOIDominoMapContext(obs.WithStats(context.Background(), st), n, opt); err != nil {
		t.Fatal(err)
	}
	boundary := int64(n.Len())
	if st.CancelChecks <= boundary {
		t.Fatalf("mux Pareto run has no in-loop checkpoints (checks=%d, nodes=%d); the regression needs a node with > %d combines",
			st.CancelChecks, boundary, combineCheckInterval)
	}

	sawInLoop := false
	for after := int64(0); after < st.CancelChecks; after++ {
		ctx := &errAfterCtx{Context: context.Background(), after: after}
		res, err := SOIDominoMapContext(ctx, n, opt)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("flip after %d checks: got (%v, %v), want canceled", after, res, err)
		}
		if strings.Contains(err.Error(), "canceled inside node") {
			sawInLoop = true
		}
	}
	if !sawInLoop {
		t.Error("no flip point hit the in-loop checkpoint; the bounded mid-node check is gone")
	}
}

// TestNilStatsSmoke pins the nil-receiver contract of the stats path:
// with no collector on the context, every recording site — including the
// formerly guarded recordCombine — must run on the nil *obs.Stats, in
// both engines and both Pareto modes.
func TestNilStatsSmoke(t *testing.T) {
	n := unateBench(t, "mux")
	for _, pareto := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Pareto = pareto
			opt.Workers = workers
			if _, err := SOIDominoMap(n, opt); err != nil {
				t.Fatalf("pareto=%v workers=%d with nil stats: %v", pareto, workers, err)
			}
		}
	}
	// The helper itself must also be callable with a nil collector.
	e := &engine{}
	e.recordCombine(nil, logic.Or, tuple.Tuple{}, tuple.Tuple{}, tuple.Tuple{})
}

// TestWorkersValidation: negative worker counts are rejected up front.
func TestWorkersValidation(t *testing.T) {
	n := unateBench(t, "mux")
	opt := DefaultOptions()
	opt.Workers = -1
	if _, err := SOIDominoMap(n, opt); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("got %v, want a Workers validation error", err)
	}
}

// TestParallelUnmappableNodeError: an error raised inside the pool (a
// constant node feeding gates) surfaces as the root cause, like the
// sequential engine's, not as a bare internal-cancellation echo.
func TestParallelUnmappableNodeError(t *testing.T) {
	n := logic.New("bad-const")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c1 := n.AddConst(true)
	g := n.AddGate(logic.And, c1, a)
	h := n.AddGate(logic.Or, g, b)
	n.AddOutput("o", h)

	opt := DefaultOptions()
	opt.Workers = 1
	_, seqErr := SOIDominoMap(n, opt)
	if seqErr == nil || !strings.Contains(seqErr.Error(), "fold constants") {
		t.Fatalf("sequential: got %v, want the fed-constant error", seqErr)
	}
	opt.Workers = 4
	_, parErr := SOIDominoMap(n, opt)
	if parErr == nil {
		t.Fatal("parallel run succeeded where sequential failed")
	}
	if errors.Is(parErr, context.Canceled) {
		t.Fatalf("parallel error is a cancellation echo, not the root cause: %v", parErr)
	}
	if !strings.Contains(parErr.Error(), "fold constants") {
		t.Fatalf("parallel error lost the root cause: %v", parErr)
	}
}
