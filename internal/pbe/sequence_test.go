package pbe

import (
	"math/rand"
	"testing"

	"soidomino/internal/sp"
)

func lit(name string, neg bool) *sp.Tree { return sp.NewLeaf(name, neg, -1) }

// muxOverE is (!s*d0 + s*d1) * e: a 2:1 multiplexer stack above a
// transistor, the shape the worst-case analysis charges three discharge
// devices for.
func muxOverE() sp.Span {
	stack := sp.NewParallel(
		sp.NewSeries(lit("s", true), lit("d0", false)),
		sp.NewSeries(lit("s", false), lit("d1", false)),
	)
	return flat(sp.NewSeries(stack, lit("e", false)))
}

// xorOverE is (a*!b + !a*b) * e.
func xorOverE() sp.Span {
	stack := sp.NewParallel(
		sp.NewSeries(lit("a", false), lit("b", true)),
		sp.NewSeries(lit("a", true), lit("b", false)),
	)
	return flat(sp.NewSeries(stack, lit("e", false)))
}

func TestFig2PointStaysExcitable(t *testing.T) {
	// (A+B+C)*D: the canonical PBE point must never be pruned.
	tr := flat(sp.NewSeries(sp.NewParallel(lit("A", false), lit("B", false), lit("C", false)), lit("D", false)))
	pts := GateDischargePoints(tr)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	if !Excitable(tr, pts[0], 0) {
		t.Fatal("fig. 2's node 1 must be excitable")
	}
	if got := PruneUnexcitable(tr, pts); len(got) != 1 {
		t.Fatalf("pruned the canonical point")
	}
}

func TestMuxBottomPruned(t *testing.T) {
	tr := muxOverE()
	pts := GateDischargePoints(tr)
	if len(pts) != 3 {
		t.Fatalf("worst-case points = %d, want 3:\n%s", len(pts), Describe(pts))
	}
	kept := PruneUnexcitable(tr, pts)
	// The select contradiction kills the stack-bottom point: charging a
	// bottom device's body needs s and !s at once. The branch-internal
	// junctions remain excitable (s=1, d0=d1=1 drives the !s-branch
	// junction from below).
	if len(kept) != 2 {
		t.Fatalf("kept %d of 3 points, want 2:\nkept:\n%s", len(kept), Describe(kept))
	}
	for _, p := range kept {
		if below(tr, p).Kind == sp.Parallel {
			t.Error("the stack-bottom junction should have been pruned")
		}
	}
}

func TestXorFullyPruned(t *testing.T) {
	tr := xorOverE()
	pts := GateDischargePoints(tr)
	if len(pts) != 3 {
		t.Fatalf("worst-case points = %d, want 3", len(pts))
	}
	kept := PruneUnexcitable(tr, pts)
	// Every charging scenario of an XOR stack requires a literal and its
	// complement simultaneously: all three points are provably safe.
	if len(kept) != 0 {
		t.Fatalf("kept %d points, want 0:\n%s", len(kept), Describe(kept))
	}
}

func TestSharedLiteralStackPartiallyPruned(t *testing.T) {
	// (a*b + a*c) * e: the bottom point stays (charging b's body only
	// needs a=c=1, b=0), but the branch-internal junctions are provably
	// safe: the only device sourced at the a-b junction is the a-device
	// itself, and raising that junction requires conducting through the
	// sibling branch — which needs a=1 while the victim needs a=0.
	tr := flat(sp.NewSeries(sp.NewParallel(
		sp.NewSeries(lit("a", false), lit("b", false)),
		sp.NewSeries(lit("a", false), lit("c", false)),
	), lit("e", false)))
	pts := GateDischargePoints(tr)
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	kept := PruneUnexcitable(tr, pts)
	if len(kept) != 1 {
		t.Fatalf("shared-literal stack should keep 1 point, kept %d:\n%s", len(kept), Describe(kept))
	}
	if below(tr, kept[0]).Kind != sp.Parallel {
		t.Error("the kept point should be the stack bottom")
	}

	// Contrast: independent top literals keep every point.
	tr2 := flat(sp.NewSeries(sp.NewParallel(
		sp.NewSeries(lit("x", false), lit("y", false)),
		sp.NewSeries(lit("z", false), lit("w", false)),
	), lit("e", false)))
	pts2 := GateDischargePoints(tr2)
	if kept2 := PruneUnexcitable(tr2, pts2); len(kept2) != len(pts2) {
		t.Fatalf("independent-literal stack should keep all %d points, kept %d", len(pts2), len(kept2))
	}
}

func TestUpwardChargePathDetected(t *testing.T) {
	// (x*y + z) * e with independent literals: the x-y junction charges
	// from BELOW via z (paper fig. 4(a)'s scenario); a top-down-only
	// analysis would wrongly prune it.
	tr := flat(sp.NewSeries(sp.NewParallel(
		sp.NewSeries(lit("x", false), lit("y", false)),
		lit("z", false),
	), lit("e", false)))
	pts := GateDischargePoints(tr)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	kept := PruneUnexcitable(tr, pts)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2 (upward charging path missed?)", len(kept))
	}
}

func TestExcitableUnknownPointKept(t *testing.T) {
	tr := muxOverE()
	// Points that are no junction of the span — past its end, on a leaf
	// or a parallel node, or below a series node's last child — are
	// unknown: conservatively excitable.
	for _, pt := range []Point{{Node: 99}, {Node: 0}, {Node: int32(len(tr) - 2)}, {Node: int32(len(tr) - 1), Below: 1}} {
		if !Excitable(tr, pt, 0) {
			t.Errorf("unknown point %v should be kept", pt)
		}
	}
}

func TestExcitableBoundOverflowConservative(t *testing.T) {
	// A wide two-level structure with many paths; with bound 1 the
	// enumeration overflows and everything must be treated as excitable.
	branches := make([]*sp.Tree, 4)
	for i := range branches {
		branches[i] = sp.NewSeries(lit(string(rune('a'+2*i)), false), lit(string(rune('b'+2*i)), false))
	}
	tr := flat(sp.NewSeries(sp.NewParallel(branches...), lit("e", false)))
	pts := GateDischargePoints(tr)
	for _, pt := range pts {
		if !Excitable(tr, pt, 1) {
			t.Fatal("bound overflow must be conservative")
		}
	}
}

// Property: pruning is sound relative to the worst-case analysis (kept ⊆
// original, order preserved) and deterministic.
func TestPruneSubsetQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		tr := flat(randomTree(rng, 4))
		pts := GateDischargePoints(tr)
		kept := PruneUnexcitable(tr, pts)
		if len(kept) > len(pts) {
			t.Fatal("prune grew the set")
		}
		i := 0
		for _, p := range pts {
			if i < len(kept) && kept[i] == p {
				i++
			}
		}
		if i != len(kept) {
			t.Fatal("prune reordered points")
		}
		kept2 := PruneUnexcitable(tr, pts)
		if len(kept2) != len(kept) {
			t.Fatal("prune not deterministic")
		}
	}
}
