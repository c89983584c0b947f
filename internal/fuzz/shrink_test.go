package fuzz

import (
	"context"
	"testing"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// faultConfig is the narrow campaign used to demonstrate end-to-end
// violation detection: only the SOI and RS area/k1/footless/plain
// variants, only the metamorphic discharge oracle, so every predicate
// evaluation costs two mapper runs.
func faultConfig() Config {
	cfg := DefaultConfig()
	opt := mapper.DefaultOptions()
	opt.BaselineStackOrder = mapper.OrderHashed
	cfg.Variants = []Variant{
		{Name: variantName(report.SOI, opt), Algo: report.SOI, Opt: opt},
		{Name: variantName(report.RS, opt), Algo: report.RS, Opt: opt},
	}
	cfg.Oracles = []Oracle{}
	cfg.Cross = []CrossOracle{{Name: "metamorphic-disch", Check: crossDisch}}
	return cfg
}

// invertedReorder returns a context whose runs all invert the SOI
// stack-reordering rule: the mapper's Flip point armed at probability 1.
// The fault lives on the context alone, so runs under any other context
// stay healthy.
func invertedReorder() context.Context {
	reg := faultpoint.New(1)
	reg.Arm(mapper.PointInvertReorder, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 1})
	return faultpoint.With(context.Background(), reg)
}

// TestFaultInjectionCaughtAndShrunk is the acceptance demonstration for
// the whole subsystem: deliberately invert the SOI stack-reordering rule
// (the paper's core PBE-avoidance move), show that the differential
// campaign catches it via the T_disch(SOI) <= T_disch(RS) metamorphic
// oracle, and shrink the first failing network to a repro of at most 15
// nodes that still fails.
func TestFaultInjectionCaughtAndShrunk(t *testing.T) {
	ctx := invertedReorder()
	cfg := faultConfig()
	cfg.Cases = 120
	cfg.Workers = 4
	e := New(cfg)
	sum, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("inverted SOI reorder rule produced no metamorphic violations in 120 cases")
	}
	v := sum.Violations[0]
	if v.Oracle != "metamorphic-disch" {
		t.Fatalf("expected metamorphic-disch violation, got %s", v)
	}

	net := e.Config().CaseNetwork(v.Case)
	shrunk := e.ShrinkFailure(ctx, net, v.Oracle)
	t.Logf("shrunk case %d from %d to %d nodes", v.Case, net.Len(), shrunk.Len())
	if shrunk.Len() > 15 {
		t.Errorf("shrunk repro has %d nodes, want <= 15:\n%s", shrunk.Len(), shrunk.Dump())
	}
	if err := shrunk.Check(); err != nil {
		t.Fatalf("shrunk network invalid: %v", err)
	}
	// The shrunk repro must still fail the same oracle...
	found := false
	for _, sv := range e.CheckNetwork(ctx, shrunk) {
		if sv.Oracle == v.Oracle {
			found = true
		}
	}
	if !found {
		t.Fatal("shrunk network no longer reproduces the violation")
	}
	// ...and be perfectly healthy under a context without the fault.
	if vs := e.CheckNetwork(context.Background(), shrunk); len(vs) != 0 {
		t.Fatalf("shrunk network fails healthy mappers: %v", vs)
	}
}

// TestShrinkPreservesSemantics drives the shrinker with a simple
// structural predicate and checks its guarantees: monotone node-count
// reduction, structural validity, and predicate preservation.
func TestShrinkPreservesSemantics(t *testing.T) {
	cfg := DefaultConfig()
	net := cfg.CaseNetwork(7)
	orig := net.Len()
	// Predicate: the network still contains an XOR/XNOR gate.
	hasXor := func(n *logic.Network) bool {
		for _, node := range n.Nodes {
			if node.Op == logic.Xor || node.Op == logic.Xnor {
				return true
			}
		}
		return false
	}
	if !hasXor(net) {
		t.Skip("case 7 generated no xor gate")
	}
	shrunk := Shrink(net, hasXor, 500)
	if err := shrunk.Check(); err != nil {
		t.Fatalf("shrunk network invalid: %v", err)
	}
	if !hasXor(shrunk) {
		t.Fatal("shrinker lost the predicate")
	}
	if shrunk.Len() >= orig {
		t.Errorf("no reduction: %d -> %d nodes", orig, shrunk.Len())
	}
	// An xor-only predicate should reduce to a tiny core: the gate, its
	// two input cones collapsed to PIs, and one output.
	if shrunk.Len() > 6 {
		t.Errorf("weak reduction: %d nodes left:\n%s", shrunk.Len(), shrunk.Dump())
	}
}
