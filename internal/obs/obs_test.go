package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNilStatsIsDisabledCollector pins the nil-receiver contract: every
// recording method must be a no-op on a nil *Stats, because that is how
// the hot DP loop runs when instrumentation is off.
func TestNilStatsIsDisabledCollector(t *testing.T) {
	var s *Stats
	s.AddNode(7)
	s.AddCombines(1, 0, 0, 3)
	s.AddCancelCheck()
	s.SetAlgorithm("x")
	s.AddPhase(PhaseDP, time.Second)
	s.Merge(&Stats{Nodes: 1})
	if got := s.String(); got != "stats: disabled" {
		t.Fatalf("nil Stats String = %q", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s := &Stats{}
	// Two combines for a node that keeps one tuple: one pruned.
	s.AddCombines(1, 0, 1, 2)
	s.AddNode(1)
	// A second node keeps three of three.
	s.AddCombines(1, 2, 0, 1)
	s.AddNode(3)

	if s.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", s.Nodes)
	}
	if s.TuplesGenerated != 5 || s.TuplesKept != 4 || s.TuplesPruned != 1 {
		t.Errorf("tuples = %d gen / %d kept / %d pruned, want 5/4/1",
			s.TuplesGenerated, s.TuplesKept, s.TuplesPruned)
	}
	if s.CombineOr != 2 || s.CombineAndOrdered != 2 || s.CombineAndReordered != 1 {
		t.Errorf("combines = %d or / %d ordered / %d reordered, want 2/2/1",
			s.CombineOr, s.CombineAndOrdered, s.CombineAndReordered)
	}
	if s.DPDischargeCharges != 3 {
		t.Errorf("DPDischargeCharges = %d, want 3", s.DPDischargeCharges)
	}
	if s.FrontierHighWater != 3 {
		t.Errorf("FrontierHighWater = %d, want 3", s.FrontierHighWater)
	}
}

func TestStatsMerge(t *testing.T) {
	a := &Stats{Nodes: 2, TuplesGenerated: 10, TuplesKept: 6, TuplesPruned: 4,
		FrontierHighWater: 3, Phases: PhaseTimes{DP: time.Millisecond}}
	b := &Stats{Nodes: 5, TuplesGenerated: 1, TuplesKept: 1,
		FrontierHighWater: 9, Phases: PhaseTimes{DP: 2 * time.Millisecond}}
	a.Merge(b)
	if a.Nodes != 7 || a.TuplesGenerated != 11 || a.TuplesKept != 7 || a.TuplesPruned != 4 {
		t.Errorf("merged counters wrong: %+v", a)
	}
	if a.FrontierHighWater != 9 {
		t.Errorf("FrontierHighWater = %d, want max(3,9)=9", a.FrontierHighWater)
	}
	if a.Phases.DP != 3*time.Millisecond {
		t.Errorf("Phases.DP = %v, want 3ms", a.Phases.DP)
	}
}

func TestStatsString(t *testing.T) {
	s := &Stats{Algorithm: "SOI_Domino_Map", Nodes: 4, TuplesGenerated: 9,
		TuplesKept: 5, TuplesPruned: 4}
	got := s.String()
	for _, want := range []string{"stats (SOI_Domino_Map):", "nodes", "9 generated, 4 pruned, 5 kept"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() missing %q:\n%s", want, got)
		}
	}
}

// TestRunPhase: RunPhase charges the phase to the context's Stats and
// passes f's error through; with no Stats and no trace f still runs.
func TestRunPhase(t *testing.T) {
	s := &Stats{}
	sentinel := errors.New("boom")
	ctx := WithStats(context.Background(), s)
	if err := RunPhase(ctx, PhaseTraceback, "c", "n", func() error { return sentinel }); err != sentinel {
		t.Fatalf("RunPhase err = %v, want sentinel", err)
	}
	if s.Phases.Traceback <= 0 {
		t.Errorf("Traceback phase not charged: %v", s.Phases.Traceback)
	}
	// No collector: f still runs, error still propagates.
	ran := false
	if err := RunPhase(context.Background(), PhaseDP, "c", "n", func() error { ran = true; return sentinel }); err != sentinel || !ran {
		t.Fatalf("RunPhase without Stats ran=%v err=%v", ran, err)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseDecompose: "decompose", PhaseUnate: "unate",
		PhaseDP: "dp", PhaseTraceback: "traceback",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}
