package bench

import (
	"testing"

	"soidomino/internal/logic"
)

// TestRandomValidAndDeterministic checks that Random yields structurally
// valid networks, reproducibly for a fixed seed, across the knob space.
func TestRandomValidAndDeterministic(t *testing.T) {
	profiles := []RandParams{
		DefaultRandParams(1),
		{Name: "shallow", Seed: 2, Inputs: 8, Outputs: 4, Gates: 30},
		{Name: "deep", Seed: 3, Inputs: 4, Outputs: 2, Gates: 40, Locality: 0.95},
		{Name: "hubs", Seed: 4, Inputs: 6, Outputs: 3, Gates: 35, FanoutSkew: 0.8},
		{Name: "reconv", Seed: 5, Inputs: 5, Outputs: 2, Gates: 30, Reconvergence: 0.9},
		{Name: "wide", Seed: 6, Inputs: 7, Outputs: 3, Gates: 25, WideFrac: 0.8, ConstFrac: 0.3},
		{Name: "degenerate", Seed: 7, Inputs: 2, Outputs: 5, Gates: 1, PIOutputs: true},
	}
	for _, p := range profiles {
		n := Random(p)
		if err := n.Check(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got, want := len(n.Inputs), p.Inputs; got != want {
			t.Errorf("%s: %d inputs, want %d", p.Name, got, want)
		}
		if got, want := len(n.Outputs), p.Outputs; got != want {
			t.Errorf("%s: %d outputs, want %d", p.Name, got, want)
		}
		again := Random(p)
		if n.Dump() != again.Dump() {
			t.Errorf("%s: not deterministic for seed %d", p.Name, p.Seed)
		}
	}
}

// TestRandomKnobsShapeTheDAG spot-checks that the depth and fanout knobs
// actually move the generated structure.
func TestRandomKnobsShapeTheDAG(t *testing.T) {
	base := RandParams{Name: "a", Seed: 11, Inputs: 8, Outputs: 4, Gates: 120}
	deep := base
	deep.Name, deep.Locality = "b", 0.95

	if dl, dd := Random(base).Depth(), Random(deep).Depth(); dd <= dl {
		t.Errorf("locality knob did not deepen the DAG: depth %d (loc 0) vs %d (loc 0.95)", dl, dd)
	}

	skewed := base
	skewed.Name, skewed.FanoutSkew = "c", 0.9
	maxFanout := func(n *logic.Network) int {
		m := 0
		for _, f := range fanouts(n) {
			if f > m {
				m = f
			}
		}
		return m
	}
	if mu, ms := maxFanout(Random(base)), maxFanout(Random(skewed)); ms <= mu {
		t.Errorf("fanout skew knob did not concentrate fanout: max %d (skew 0) vs %d (skew 0.9)", mu, ms)
	}
}
