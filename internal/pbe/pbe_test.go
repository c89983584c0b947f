package pbe

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/sp"
)

func leaf(name string) *sp.Tree { return sp.NewLeaf(name, false, -1) }

// flat flattens a fixture tree, dropping its input names.
func flat(t *sp.Tree) sp.Span {
	s, _ := sp.Flatten(t)
	return s
}

// render renders a span whose input names are names; gate-driven leaves
// render as g<id>.
func render(s sp.Span, names []string) string {
	return s.Tree(func(n sp.Node) string {
		if g := n.Gate(); g >= 0 {
			return fmt.Sprintf("g%d", g)
		}
		return names[n.Input()]
	}).String()
}

// below returns the child directly above a junction.
func below(s sp.Span, p Point) sp.Node {
	return s[s.Children(int(p.Node), nil)[p.Below]]
}

// TestFigure2a pins the paper's motivating example: (A+B+C)*D has exactly
// one discharge point — node 1, the bottom of the parallel stack — which
// fig 2(c) protects with a single p-discharge transistor.
func TestFigure2a(t *testing.T) {
	tr := flat(sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B"), leaf("C")), leaf("D")))
	pts := GateDischargePoints(tr)
	if len(pts) != 1 {
		t.Fatalf("discharge points = %d, want 1:\n%s", len(pts), Describe(pts))
	}
	if pts[0].Below != 0 || int(pts[0].Node) != len(tr)-1 || below(tr, pts[0]).Kind != sp.Parallel {
		t.Errorf("discharge point should be below the parallel stack, got %v", pts[0])
	}
}

// TestFigure2aReordered pins paper solution 4 (§III-C): moving the parallel
// stack to the bottom of the gate removes the need for any discharge.
func TestFigure2aReordered(t *testing.T) {
	tr := flat(sp.NewSeries(leaf("D"), sp.NewParallel(leaf("A"), leaf("B"), leaf("C"))))
	if n := len(GateDischargePoints(tr)); n != 0 {
		t.Errorf("D*(A+B+C) needs %d discharges, want 0", n)
	}
}

// TestFigure4a: A*B+C has one potential discharge point (the A-B junction)
// and, as a grounded gate, needs no discharge transistors.
func TestFigure4a(t *testing.T) {
	tr := flat(sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C")))
	a := Analyze(tr, nil, nil)
	if len(a.Potential) != 1 || len(a.Immediate) != 0 {
		t.Fatalf("analysis = %d potential, %d immediate; want 1, 0", len(a.Potential), len(a.Immediate))
	}
	if !a.ParB {
		t.Error("A*B+C has a parallel bottom")
	}
	if n := len(GateDischargePoints(tr)); n != 0 {
		t.Errorf("grounded A*B+C needs %d discharges, want 0", n)
	}
}

// TestFigure4b: (A*B+C) in series above (D*E+F). The top stack's potential
// point (A-B junction) and the junction between the stacks must be
// discharged; the bottom stack's point (D-E) stays potential.
func TestFigure4b(t *testing.T) {
	top := sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	bottom := sp.NewParallel(sp.NewSeries(leaf("D"), leaf("E")), leaf("F"))
	tr := flat(sp.NewSeries(top, bottom))
	a := Analyze(tr, nil, nil)
	if len(a.Immediate) != 2 {
		t.Errorf("immediate = %d, want 2:\n%s", len(a.Immediate), Describe(a.Immediate))
	}
	if len(a.Potential) != 1 {
		t.Errorf("potential = %d, want 1:\n%s", len(a.Potential), Describe(a.Potential))
	}
	if !a.ParB {
		t.Error("par_b should be true (bottom stack is parallel)")
	}
	// As a complete grounded gate: exactly the 2 immediate discharges.
	if n := len(GateDischargePoints(tr)); n != 2 {
		t.Errorf("gate discharges = %d, want 2", n)
	}
}

// TestFigure5 pins the stack-switching example: (A*B+C) ANDed with E.
func TestFigure5(t *testing.T) {
	stack := func() *sp.Tree {
		return sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	}
	// Left circuit: E at the bottom -> two immediate discharge transistors.
	left, names := sp.Flatten(sp.NewSeries(stack(), leaf("E")))
	la := Analyze(left, nil, nil)
	if len(la.Immediate) != 2 || len(la.Potential) != 0 {
		t.Errorf("left: %d immediate, %d potential; want 2, 0",
			len(la.Immediate), len(la.Potential))
	}
	if la.ParB {
		t.Error("left: par_b should be false (leaf at bottom)")
	}
	// Right circuit: E on top -> two potential points, no immediate.
	right := flat(sp.NewSeries(leaf("E"), stack()))
	ra := Analyze(right, nil, nil)
	if len(ra.Immediate) != 0 || len(ra.Potential) != 2 {
		t.Errorf("right: %d immediate, %d potential; want 0, 2",
			len(ra.Immediate), len(ra.Potential))
	}
	if !ra.ParB {
		t.Error("right: par_b should be true")
	}
	// Connected to ground, the right circuit needs no discharges at all.
	if n := len(GateDischargePoints(right)); n != 0 {
		t.Errorf("grounded right circuit: %d discharges, want 0", n)
	}
	// Rearrange must turn the left circuit into the right one.
	if got := render(Rearrange(nil, left), names); got != "E*(A*B+C)" {
		t.Errorf("Rearrange(left) = %q, want E*(A*B+C)", got)
	}
}

func TestPureSeriesChainIsSafe(t *testing.T) {
	tr := flat(sp.NewSeries(leaf("A"), leaf("B"), leaf("C"), leaf("D")))
	a := Analyze(tr, nil, nil)
	if len(a.Immediate) != 0 {
		t.Errorf("pure series chain has %d immediate points, want 0", len(a.Immediate))
	}
	if len(a.Potential) != 3 {
		t.Errorf("pure series chain has %d potential points, want 3 junctions", len(a.Potential))
	}
	if len(GateDischargePoints(tr)) != 0 {
		t.Error("pure series gate must need no discharge transistors")
	}
}

func TestLeafAnalysis(t *testing.T) {
	a := Analyze(flat(leaf("x")), nil, nil)
	if len(a.Immediate) != 0 || len(a.Potential) != 0 || a.ParB {
		t.Errorf("leaf analysis = %+v", a)
	}
}

func TestNestedParallelInBranch(t *testing.T) {
	// ((A+B)*C + D)*E : inner parallel sits above C inside a branch.
	inner := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr := flat(sp.NewSeries(sp.NewParallel(inner, leaf("D")), leaf("E")))
	a := Analyze(tr, nil, nil)
	// Inner junction below (A+B) is immediate (parallel above C within a
	// branch); the branch's structure sits above E, so the outer stack's
	// bottom junction is immediate too.
	if len(a.Immediate) != 2 {
		t.Errorf("immediate = %d, want 2:\n%s", len(a.Immediate), Describe(a.Immediate))
	}
	if len(GateDischargePoints(tr)) != 2 {
		t.Errorf("gate discharges = %d, want 2", len(GateDischargePoints(tr)))
	}
}

func TestPotentialCount(t *testing.T) {
	tr := flat(sp.NewSeries(leaf("E"), sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))))
	if PotentialCount(tr) != 2 {
		t.Errorf("PotentialCount = %d, want 2", PotentialCount(tr))
	}
}

func TestRearrangeDeepRecursesIntoBranches(t *testing.T) {
	// Branch contains (A+B)*C in the PBE-prone order; outer is already fine.
	branch := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr, names := sp.Flatten(sp.NewParallel(branch, leaf("D")))
	r := RearrangeDeep(nil, tr)
	if got := render(r, names); got != "C*(A+B)+D" {
		t.Errorf("RearrangeDeep = %q, want C*(A+B)+D", got)
	}
	// The paper's RS_Map post-process only touches the ground-side stack:
	// a parallel-rooted gate is left as is.
	if got := render(Rearrange(nil, tr), names); got != "(A+B)*C+D" {
		t.Errorf("Rearrange = %q, want (A+B)*C+D (untouched)", got)
	}
}

func TestRearrangeTopOnlyRootStack(t *testing.T) {
	// Root series stack is reordered; the nested branch keeps its order.
	branch := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr, names := sp.Flatten(sp.NewSeries(sp.NewParallel(branch, leaf("D")), leaf("E")))
	r := Rearrange(nil, tr)
	if got := render(r, names); got != "E*((A+B)*C+D)" {
		t.Errorf("Rearrange = %q, want E*((A+B)*C+D)", got)
	}
	d := RearrangeDeep(nil, tr)
	if got := render(d, names); got != "E*(C*(A+B)+D)" {
		t.Errorf("RearrangeDeep = %q, want E*(C*(A+B)+D)", got)
	}
	if len(GateDischargePoints(d)) > len(GateDischargePoints(r)) {
		t.Error("deep rearrangement should not be worse than top-level")
	}
}

func TestRearrangePicksLargestPotentialForBottom(t *testing.T) {
	// Two parallel stacks in series: the one with more potential points
	// (D*E*F+G: two junctions) must end up at the bottom.
	small := sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	big := sp.NewParallel(sp.NewSeries(leaf("D"), leaf("E"), leaf("F")), leaf("G"))
	tr := flat(sp.NewSeries(big, small)) // big on top: 2+1 immediate... wrong order anyway
	r := Rearrange(nil, tr)
	bottom := r[r.Start(len(r)-2) : len(r)-1]
	if !bottom.ContainsParallel() {
		t.Fatal("bottom child should be a parallel stack")
	}
	if got := PotentialCount(bottom); got != 2 {
		t.Errorf("bottom stack potential = %d, want 2 (the larger stack)", got)
	}
	// small on top: its potential (1) + junction (1) materialize = 2,
	// versus 3 had big stayed on top.
	if n := len(GateDischargePoints(r)); n != 2 {
		t.Errorf("rearranged discharges = %d, want 2", n)
	}
	if n := len(GateDischargePoints(tr)); n != 3 {
		t.Errorf("original discharges = %d, want 3", n)
	}
}

func TestPointString(t *testing.T) {
	tr := flat(sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C")))
	pts := GateDischargePoints(tr)
	if len(pts) != 1 {
		t.Fatalf("want 1 point, got %d", len(pts))
	}
	s := pts[0].String()
	if !strings.Contains(s, "junction below") {
		t.Errorf("Point.String = %q", s)
	}
}

func randomTree(rng *rand.Rand, depth int) *sp.Tree {
	if depth == 0 || rng.Intn(3) == 0 {
		return sp.NewLeaf(string(rune('a'+rng.Intn(8))), false, -1)
	}
	k := 2 + rng.Intn(2)
	children := make([]*sp.Tree, k)
	for i := range children {
		children[i] = randomTree(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return sp.NewSeries(children...)
	}
	return sp.NewParallel(children...)
}

// Property: Rearrange preserves function, dimensions and transistor count,
// and never increases the number of discharge transistors (the paper's
// RS_Map premise).
func TestRearrangePropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := flat(randomTree(rng, 4))
		for _, r := range []sp.Span{Rearrange(nil, tr), RearrangeDeep(nil, tr)} {
			if r.Validate() != nil {
				return false
			}
			if r.Width() != tr.Width() || r.Height() != tr.Height() {
				return false
			}
			if r.Transistors() != tr.Transistors() {
				return false
			}
			if len(GateDischargePoints(r)) > len(GateDischargePoints(tr)) {
				return false
			}
			for trial := 0; trial < 8; trial++ {
				vals := make([]bool, 8)
				for i := range vals {
					vals[i] = rng.Intn(2) == 0
				}
				if tr.Conducts(vals, nil) != r.Conducts(vals, nil) {
					return false
				}
			}
		}
		// The deep variant dominates the paper's top-level variant.
		return len(GateDischargePoints(RearrangeDeep(nil, tr))) <= len(GateDischargePoints(Rearrange(nil, tr)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the immediate/potential split partitions a fixed set — the
// total is invariant under rearrangement (the paper's observation that
// ordering is "irrelevant" when the stack never reaches ground).
func TestAnalysisTotalInvariantQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := flat(randomTree(rng, 4))
		a := Analyze(tr, nil, nil)
		r := Analyze(RearrangeDeep(nil, tr), nil, nil)
		return len(a.Immediate)+len(a.Potential) == len(r.Immediate)+len(r.Potential)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every junction is classified exactly once.
func TestJunctionPartitionQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	countJunctions := func(s sp.Span) int {
		n := 0
		for _, x := range s {
			if x.Kind == sp.Series {
				n += int(x.Arg) - 1
			}
		}
		return n
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := flat(randomTree(rng, 4))
		a := Analyze(tr, nil, nil)
		seen := map[Point]bool{}
		for _, p := range a.Immediate {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		for _, p := range a.Potential {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return len(seen) == countJunctions(tr)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Analyze matches the reference recursive tree walk
// (refAnalyze) point for point — same series node, same Below, same
// order — on fresh and on reused destination slices, and leaves whatever
// the destinations already held in place.
func TestAnalyzeMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(31))}
	var imm, pot []Point
	sentinel := Point{Below: -1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 5)
		s := flat(tr)
		want := refAnalyze(tr)
		got := Analyze(s, nil, nil)
		if !slices.Equal(got.Immediate, want.Immediate) || !slices.Equal(got.Potential, want.Potential) || got.ParB != want.ParB {
			return false
		}
		reused := Analyze(s, append(imm[:0], sentinel), append(pot[:0], sentinel))
		imm, pot = reused.Immediate, reused.Potential
		return reused.ParB == want.ParB &&
			imm[0] == sentinel && slices.Equal(imm[1:], want.Immediate) &&
			pot[0] == sentinel && slices.Equal(pot[1:], want.Potential)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Rearrange and RearrangeDeep write their output after dst and
// never modify their input: the input keeps its nodes and its discharge
// points, and whatever dst held stays in place.
func TestRearrangeLeavesInputUnchangedQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(37))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := flat(randomTree(rng, 5))
		s, pts := slices.Clone(tr), GateDischargePoints(tr)
		dst := sp.Span{sp.InputLeaf(0, false)}
		for _, r := range []sp.Span{Rearrange(dst, tr), RearrangeDeep(dst, tr)} {
			if r[0] != dst[0] || r[1:].Validate() != nil || !slices.Equal(tr, s) || !slices.Equal(GateDischargePoints(tr), pts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
