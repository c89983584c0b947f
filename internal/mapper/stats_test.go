package mapper

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
)

// statsNetwork is a small fixed circuit whose DP instrumentation differs
// between the mappers: the shared (a+b+c)*d subfunction gives the series
// composition a parallel bottom, so the baseline mappers charge discharge
// points while SOI's ordering rule flips the stack instead.
func statsNetwork() *logic.Network {
	n := logic.New("stats")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	e := n.AddInput("e")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	and1 := n.AddGate(logic.And, or3, d)
	n.AddOutput("f", n.AddGate(logic.And, and1, e))
	n.AddOutput("g", n.AddGate(logic.Or, and1, e))
	return n
}

type mapCtxFunc func(context.Context, *logic.Network, Options) (*Result, error)

func runWithStats(t *testing.T, f mapCtxFunc) *obs.Stats {
	t.Helper()
	st := &obs.Stats{}
	ctx := obs.WithStats(context.Background(), st)
	if _, err := f(ctx, statsNetwork(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsDeterministic pins the exact instrumentation record of each
// mapper on the fixed network. The counters are part of the DP's observable
// behavior: the SOI row differs from the baselines exactly where the paper
// says it should — two series stacks reordered, zero discharge points
// charged.
func TestStatsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		f    mapCtxFunc
		want obs.Stats
	}{
		{"domino", DominoMapContext, obs.Stats{
			Algorithm: "Domino_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 4, CombineAndReordered: 0,
			FrontierHighWater: 3, DPDischargeCharges: 2, CancelChecks: 10,
		}},
		{"rs", RSMapContext, obs.Stats{
			Algorithm: "RS_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 4, CombineAndReordered: 0,
			FrontierHighWater: 3, DPDischargeCharges: 2, CancelChecks: 10,
		}},
		{"soi", SOIDominoMapContext, obs.Stats{
			Algorithm: "SOI_Domino_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 2, CombineAndReordered: 2,
			FrontierHighWater: 3, DPDischargeCharges: 0, CancelChecks: 10,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWithStats(t, tc.f)
			got.Phases = obs.PhaseTimes{} // wall times are not deterministic
			if *got != tc.want {
				t.Errorf("stats mismatch:\n got %+v\nwant %+v", *got, tc.want)
			}
		})
	}
}

// TestStatsInvariants checks the cross-counter identities every run must
// satisfy, on a mapper with pruning in play.
func TestStatsInvariants(t *testing.T) {
	opt := DefaultOptions()
	opt.Pareto = true
	st := &obs.Stats{}
	ctx := obs.WithStats(context.Background(), st)
	if _, err := SOIDominoMapContext(ctx, statsNetwork(), opt); err != nil {
		t.Fatal(err)
	}
	if got := st.CombineOr + st.CombineAndOrdered + st.CombineAndReordered; got != st.TuplesGenerated {
		t.Errorf("combine kinds sum to %d, generated %d", got, st.TuplesGenerated)
	}
	if st.TuplesPruned != st.TuplesGenerated-st.TuplesKept {
		t.Errorf("pruned %d != generated %d - kept %d", st.TuplesPruned, st.TuplesGenerated, st.TuplesKept)
	}
	if st.Nodes == 0 || st.TuplesGenerated == 0 || st.CancelChecks == 0 {
		t.Errorf("run recorded nothing: %+v", st)
	}
	if st.Phases.DP <= 0 || st.Phases.Traceback <= 0 {
		t.Errorf("phase timings not charged: %+v", st.Phases)
	}
	if st.FrontierHighWater <= 0 || st.FrontierHighWater > st.TuplesKept {
		t.Errorf("high water %d out of range (kept %d)", st.FrontierHighWater, st.TuplesKept)
	}
}

// TestStatsConcurrentRunsIndependent proves concurrent runs with stats
// enabled do not share collector state: under -race this also fails on any
// unsynchronized write to a shared structure.
func TestStatsConcurrentRunsIndependent(t *testing.T) {
	const runs = 8
	collected := make([]*obs.Stats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &obs.Stats{}
			ctx := obs.WithStats(context.Background(), st)
			if _, err := SOIDominoMapContext(ctx, statsNetwork(), DefaultOptions()); err != nil {
				t.Error(err)
				return
			}
			collected[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range collected {
		if st == nil {
			t.Fatalf("run %d failed", i)
		}
		// Every run saw exactly one network's worth of work: any
		// cross-contamination would double counters somewhere.
		if st.Nodes != 5 || st.TuplesGenerated != 8 {
			t.Errorf("run %d contaminated: nodes=%d generated=%d", i, st.Nodes, st.TuplesGenerated)
		}
	}
}

// TestStatsOverhead is the `make check` guard on the zero-cost-when-
// disabled contract: with the collector enabled a run must not be
// measurably slower. Timing assertions are flaky on loaded CI machines,
// so the test only runs when SOIDOMINO_OBS_OVERHEAD=1.
func TestStatsOverhead(t *testing.T) {
	if os.Getenv("SOIDOMINO_OBS_OVERHEAD") != "1" {
		t.Skip("set SOIDOMINO_OBS_OVERHEAD=1 to run the overhead guard")
	}
	net := statsNetwork()
	opt := DefaultOptions()
	const iters = 2000
	measure := func(ctx context.Context) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := SOIDominoMapContext(ctx, net, opt); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Warm up, then time both configurations back to back in each of 21
	// rounds, alternating which goes first, and compare the median of
	// the rounds' ratios. A batch takes a few ms, and machine load that
	// comes and goes moves a sum over rounds, or either side's best
	// batch, past the bound; it slows the two batches of one round alike.
	measure(context.Background())
	stats := obs.WithStats(context.Background(), &obs.Stats{})
	ratios := make([]float64, 21)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off = measure(context.Background())
			on = measure(stats)
		} else {
			on = measure(stats)
			off = measure(context.Background())
		}
		ratios[i] = float64(on) / float64(off)
	}
	slices.Sort(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("enabled is %.1f%% slower in the median round (rounds %.1f%% to %.1f%%)",
		100*overhead, 100*(ratios[0]-1), 100*(ratios[len(ratios)-1]-1))
	// Generous bound: the contract is "no measurable slowdown", the
	// assertion allows scheduling noise.
	if overhead > 0.25 {
		t.Errorf("stats enabled is %.1f%% slower in the median round, bound 25%%", 100*overhead)
	}
}
