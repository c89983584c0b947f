package mapper

import (
	"math/rand"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/sp"
)

// checkMappedEquivalentSampled compares mapped vs source on random vectors
// for circuits too wide for exhaustive checking.
func checkMappedEquivalentSampled(t *testing.T, orig *logic.Network, res *Result, vectors int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	k := len(orig.Inputs)
	in := make([]bool, k)
	vals := make(map[string]bool, k)
	for v := 0; v < vectors; v++ {
		for j := 0; j < k; j++ {
			in[j] = rng.Intn(2) == 1
			vals[orig.Nodes[orig.Inputs[j]].Name] = in[j]
		}
		want, err := orig.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Eval(vals)
		if err != nil {
			t.Fatal(err)
		}
		for oi, out := range orig.Outputs {
			if got[out.Name] != want[oi] {
				t.Fatalf("%s: output %q wrong on sampled vector %d", res.Algorithm, out.Name, v)
			}
		}
	}
}

// stackedStacks builds f = (a*b*c + d*e*f + g*h*i) * (j*k*l + m*n*o + p*q*r):
// two wide parallel stacks in series. As a single domino gate the top
// stack's six potential points plus its bottom node need discharge
// devices (7 total); as a NOR-joined compound pair both stacks sit on
// ground and need none.
func stackedStacks() *logic.Network {
	n := logic.New("stacked")
	stack := func(base byte) int {
		var branches []int
		for b := 0; b < 3; b++ {
			x := n.AddInput(string(base + byte(3*b)))
			y := n.AddInput(string(base + byte(3*b+1)))
			z := n.AddInput(string(base + byte(3*b+2)))
			branches = append(branches, n.AddGate(logic.And, n.AddGate(logic.And, x, y), z))
		}
		return n.AddGate(logic.Or, n.AddGate(logic.Or, branches[0], branches[1]), branches[2])
	}
	p1 := stack('a')
	p2 := stack('j')
	n.AddOutput("f", n.AddGate(logic.And, p1, p2))
	return n
}

func TestCompoundTransformSeriesSplit(t *testing.T) {
	opt := DefaultOptions()
	res, err := DominoMap(stackedStacks(), opt) // source order: first stack on top
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Gates != 1 || res.Stats.TDisch != 7 {
		t.Fatalf("precondition: %s (want 1 gate, 7 discharges)\n%s", res.Stats, res.Dump())
	}
	before := res.Stats

	cs := CompoundTransform(res, DefaultCompoundOptions())
	if cs.Converted != 1 {
		t.Fatalf("converted = %d, want 1", cs.Converted)
	}
	if err := res.Audit(); err != nil {
		t.Fatalf("audit: %v\n%s", err, res.Dump())
	}
	g := res.Gates[0]
	if g.Compound == nil || g.Compound.Kind != CompoundNOR || len(g.Compound.Stages) != 2 {
		t.Fatalf("compound info = %+v", g.Compound)
	}
	if res.Stats.TDisch != 0 {
		t.Errorf("compound pair still needs %d discharges", res.Stats.TDisch)
	}
	if res.Stats.TTotal >= before.TTotal {
		t.Errorf("Ttotal %d -> %d: conversion should save transistors", before.TTotal, res.Stats.TTotal)
	}
	if cs.Saved != before.TTotal-res.Stats.TTotal {
		t.Errorf("reported saving %d, stats moved by %d", cs.Saved, before.TTotal-res.Stats.TTotal)
	}
	// Function preserved.
	checkMappedEquivalentSampled(t, stackedStacks(), res, 3000)
}

func TestCompoundTransformSkipsUnprofitable(t *testing.T) {
	// Fig. 4(b): only 2 discharges; the conversion overhead (~5) exceeds
	// the saving, so the gate stays plain.
	res, err := DominoMap(fig2Network(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := CompoundTransform(res, DefaultCompoundOptions())
	if cs.Converted != 0 {
		t.Errorf("converted %d gates; none are profitable", cs.Converted)
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCompoundForcedNANDSplit(t *testing.T) {
	// A wide parallel-rooted gate: cost-wise the split never pays (the
	// branches are grounded either way), but SplitWiderThan forces it.
	n := logic.New("wide")
	var branches []int
	for i := 0; i < 4; i++ {
		a := n.AddInput(string(rune('a' + 2*i)))
		b := n.AddInput(string(rune('b' + 2*i)))
		branches = append(branches, n.AddGate(logic.And, a, b))
	}
	or1 := n.AddGate(logic.Or, branches[0], branches[1])
	or2 := n.AddGate(logic.Or, branches[2], branches[3])
	n.AddOutput("f", n.AddGate(logic.Or, or1, or2))

	res, err := DominoMap(n, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Gates != 1 || res.Gates[0].Nodes[len(res.Gates[0].Nodes)-1].Kind != sp.Parallel {
		t.Fatalf("precondition: %s", res.Dump())
	}
	opt := DefaultCompoundOptions()
	opt.SplitWiderThan = 2
	cs := CompoundTransform(res, opt)
	if cs.Converted != 1 {
		t.Fatalf("forced split did not happen: %+v", cs)
	}
	g := res.Gates[0]
	if g.Compound.Kind != CompoundNAND {
		t.Fatalf("kind = %v, want NAND", g.Compound.Kind)
	}
	for _, st := range g.Compound.Stages {
		if st.Nodes.Width() > 3 {
			t.Errorf("stage width %d not reduced", st.Nodes.Width())
		}
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
	checkMappedEquivalent(t, n, res)
}

func TestCompoundIdempotent(t *testing.T) {
	res, err := DominoMap(stackedStacks(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	CompoundTransform(res, DefaultCompoundOptions())
	after := res.Stats
	cs := CompoundTransform(res, DefaultCompoundOptions())
	if cs.Converted != 0 || res.Stats != after {
		t.Error("second transform should be a no-op")
	}
}

func TestCompoundKindString(t *testing.T) {
	if CompoundNAND.String() != "nand" || CompoundNOR.String() != "nor" {
		t.Error("CompoundKind.String broken")
	}
}

func TestCompoundDumpMentionsKind(t *testing.T) {
	res, err := DominoMap(stackedStacks(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	CompoundTransform(res, DefaultCompoundOptions())
	if dump := res.Dump(); !contains(dump, "compound-nor(2)") {
		t.Errorf("dump missing compound marker:\n%s", dump)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
