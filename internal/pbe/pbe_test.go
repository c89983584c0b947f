package pbe

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/sp"
)

func leaf(name string) *sp.Tree { return sp.NewLeaf(name, false, -1) }

// TestFigure2a pins the paper's motivating example: (A+B+C)*D has exactly
// one discharge point — node 1, the bottom of the parallel stack — which
// fig 2(c) protects with a single p-discharge transistor.
func TestFigure2a(t *testing.T) {
	tr := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B"), leaf("C")), leaf("D"))
	pts := GateDischargePoints(tr)
	if len(pts) != 1 {
		t.Fatalf("discharge points = %d, want 1:\n%s", len(pts), Describe(pts))
	}
	if pts[0].Below != 0 || pts[0].Group.Children[0].Kind != sp.Parallel {
		t.Errorf("discharge point should be below the parallel stack, got %v", pts[0])
	}
}

// TestFigure2aReordered pins paper solution 4 (§III-C): moving the parallel
// stack to the bottom of the gate removes the need for any discharge.
func TestFigure2aReordered(t *testing.T) {
	tr := sp.NewSeries(leaf("D"), sp.NewParallel(leaf("A"), leaf("B"), leaf("C")))
	if n := DischargeCount(tr); n != 0 {
		t.Errorf("D*(A+B+C) needs %d discharges, want 0", n)
	}
}

// TestFigure4a: A*B+C has one potential discharge point (the A-B junction)
// and, as a grounded gate, needs no discharge transistors.
func TestFigure4a(t *testing.T) {
	tr := sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	a := Analyze(tr, nil, nil)
	if len(a.Potential) != 1 || len(a.Immediate) != 0 {
		t.Fatalf("analysis = %d potential, %d immediate; want 1, 0", len(a.Potential), len(a.Immediate))
	}
	if !a.ParB {
		t.Error("A*B+C has a parallel bottom")
	}
	if n := DischargeCount(tr); n != 0 {
		t.Errorf("grounded A*B+C needs %d discharges, want 0", n)
	}
}

// TestFigure4b: (A*B+C) in series above (D*E+F). The top stack's potential
// point (A-B junction) and the junction between the stacks must be
// discharged; the bottom stack's point (D-E) stays potential.
func TestFigure4b(t *testing.T) {
	top := sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	bottom := sp.NewParallel(sp.NewSeries(leaf("D"), leaf("E")), leaf("F"))
	tr := sp.NewSeries(top, bottom)
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
	if n := DischargeCount(tr); n != 2 {
		t.Errorf("gate discharges = %d, want 2", n)
	}
}

// TestFigure5 pins the stack-switching example: (A*B+C) ANDed with E.
func TestFigure5(t *testing.T) {
	stack := func() *sp.Tree {
		return sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	}
	// Left circuit: E at the bottom -> two immediate discharge transistors.
	left := sp.NewSeries(stack(), leaf("E"))
	la := Analyze(left, nil, nil)
	if len(la.Immediate) != 2 || len(la.Potential) != 0 {
		t.Errorf("left: %d immediate, %d potential; want 2, 0",
			len(la.Immediate), len(la.Potential))
	}
	if la.ParB {
		t.Error("left: par_b should be false (leaf at bottom)")
	}
	// Right circuit: E on top -> two potential points, no immediate.
	right := sp.NewSeries(leaf("E"), stack())
	ra := Analyze(right, nil, nil)
	if len(ra.Immediate) != 0 || len(ra.Potential) != 2 {
		t.Errorf("right: %d immediate, %d potential; want 0, 2",
			len(ra.Immediate), len(ra.Potential))
	}
	if !ra.ParB {
		t.Error("right: par_b should be true")
	}
	// Connected to ground, the right circuit needs no discharges at all.
	if n := DischargeCount(right); n != 0 {
		t.Errorf("grounded right circuit: %d discharges, want 0", n)
	}
	// Rearrange must turn the left circuit into the right one.
	if got := Rearrange(left).String(); got != "E*(A*B+C)" {
		t.Errorf("Rearrange(left) = %q, want E*(A*B+C)", got)
	}
}

func TestPureSeriesChainIsSafe(t *testing.T) {
	tr := sp.NewSeries(leaf("A"), leaf("B"), leaf("C"), leaf("D"))
	a := Analyze(tr, nil, nil)
	if len(a.Immediate) != 0 {
		t.Errorf("pure series chain has %d immediate points, want 0", len(a.Immediate))
	}
	if len(a.Potential) != 3 {
		t.Errorf("pure series chain has %d potential points, want 3 junctions", len(a.Potential))
	}
	if DischargeCount(tr) != 0 {
		t.Error("pure series gate must need no discharge transistors")
	}
}

func TestLeafAnalysis(t *testing.T) {
	a := Analyze(leaf("x"), nil, nil)
	if len(a.Immediate) != 0 || len(a.Potential) != 0 || a.ParB {
		t.Errorf("leaf analysis = %+v", a)
	}
}

func TestNestedParallelInBranch(t *testing.T) {
	// ((A+B)*C + D)*E : inner parallel sits above C inside a branch.
	inner := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr := sp.NewSeries(sp.NewParallel(inner, leaf("D")), leaf("E"))
	a := Analyze(tr, nil, nil)
	// Inner junction below (A+B) is immediate (parallel above C within a
	// branch); the branch's structure sits above E, so the outer stack's
	// bottom junction is immediate too.
	if len(a.Immediate) != 2 {
		t.Errorf("immediate = %d, want 2:\n%s", len(a.Immediate), Describe(a.Immediate))
	}
	if DischargeCount(tr) != 2 {
		t.Errorf("gate discharges = %d, want 2", DischargeCount(tr))
	}
}

func TestPotentialCount(t *testing.T) {
	tr := sp.NewSeries(leaf("E"), sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C")))
	if PotentialCount(tr) != 2 {
		t.Errorf("PotentialCount = %d, want 2", PotentialCount(tr))
	}
}

func TestRearrangeDeepRecursesIntoBranches(t *testing.T) {
	// Branch contains (A+B)*C in the PBE-prone order; outer is already fine.
	branch := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr := sp.NewParallel(branch, leaf("D"))
	r := RearrangeDeep(tr)
	if got := r.String(); got != "C*(A+B)+D" {
		t.Errorf("RearrangeDeep = %q, want C*(A+B)+D", got)
	}
	// The paper's RS_Map post-process only touches the ground-side stack:
	// a parallel-rooted gate is left as is.
	if got := Rearrange(tr).String(); got != "(A+B)*C+D" {
		t.Errorf("Rearrange = %q, want (A+B)*C+D (untouched)", got)
	}
}

func TestRearrangeTopOnlyRootStack(t *testing.T) {
	// Root series stack is reordered; the nested branch keeps its order.
	branch := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
	tr := sp.NewSeries(sp.NewParallel(branch, leaf("D")), leaf("E"))
	r := Rearrange(tr)
	if got := r.String(); got != "E*((A+B)*C+D)" {
		t.Errorf("Rearrange = %q, want E*((A+B)*C+D)", got)
	}
	d := RearrangeDeep(tr)
	if got := d.String(); got != "E*(C*(A+B)+D)" {
		t.Errorf("RearrangeDeep = %q, want E*(C*(A+B)+D)", got)
	}
	if DischargeCount(d) > DischargeCount(r) {
		t.Error("deep rearrangement should not be worse than top-level")
	}
}

func TestRearrangePicksLargestPotentialForBottom(t *testing.T) {
	// Two parallel stacks in series: the one with more potential points
	// (D*E*F+G: two junctions) must end up at the bottom.
	small := sp.NewParallel(sp.NewSeries(leaf("A"), leaf("B")), leaf("C"))
	big := sp.NewParallel(sp.NewSeries(leaf("D"), leaf("E"), leaf("F")), leaf("G"))
	tr := sp.NewSeries(big, small) // big on top: 2+1 immediate... wrong order anyway
	r := Rearrange(tr)
	if !r.Children[len(r.Children)-1].ContainsParallel() {
		t.Fatal("bottom child should be a parallel stack")
	}
	if got := PotentialCount(r.Children[len(r.Children)-1]); got != 2 {
		t.Errorf("bottom stack potential = %d, want 2 (the larger stack)", got)
	}
	// small on top: its potential (1) + junction (1) materialize = 2,
	// versus 3 had big stayed on top.
	if n := DischargeCount(r); n != 2 {
		t.Errorf("rearranged discharges = %d, want 2", n)
	}
	if n := DischargeCount(tr); n != 3 {
		t.Errorf("original discharges = %d, want 3", n)
	}
}

func TestPointString(t *testing.T) {
	tr := sp.NewSeries(sp.NewParallel(leaf("A"), leaf("B")), leaf("C"))
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
		tr := randomTree(rng, 4)
		for _, r := range []*sp.Tree{Rearrange(tr), RearrangeDeep(tr)} {
			if r.Validate() != nil {
				return false
			}
			if r.Width() != tr.Width() || r.Height() != tr.Height() {
				return false
			}
			if r.Transistors() != tr.Transistors() {
				return false
			}
			if DischargeCount(r) > DischargeCount(tr) {
				return false
			}
			for trial := 0; trial < 8; trial++ {
				vals := map[string]bool{}
				for _, s := range "abcdefgh" {
					vals[string(s)] = rng.Intn(2) == 0
				}
				if tr.Conducts(vals) != r.Conducts(vals) {
					return false
				}
			}
		}
		// The deep variant dominates the paper's top-level variant.
		return DischargeCount(RearrangeDeep(tr)) <= DischargeCount(Rearrange(tr))
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
		tr := randomTree(rng, 4)
		a := Analyze(tr, nil, nil)
		r := Analyze(RearrangeDeep(tr), nil, nil)
		return len(a.Immediate)+len(a.Potential) == len(r.Immediate)+len(r.Potential)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every junction is classified exactly once.
func TestJunctionPartitionQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	countJunctions := func(tr *sp.Tree) int {
		n := 0
		var walk func(*sp.Tree)
		walk = func(t *sp.Tree) {
			if t.Kind == sp.Series {
				n += len(t.Children) - 1
			}
			for _, c := range t.Children {
				walk(c)
			}
		}
		walk(tr)
		return n
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 4)
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

// analyzeReference is the original recursive Analyze — a fresh pair of
// lists per node, concatenated on the way up — kept as the oracle for the
// destination-passing implementation.
func analyzeReference(t *sp.Tree) Analysis {
	switch t.Kind {
	case sp.Leaf:
		return Analysis{}
	case sp.Parallel:
		var a Analysis
		for _, c := range t.Children {
			ca := analyzeReference(c)
			a.Immediate = append(a.Immediate, ca.Immediate...)
			a.Potential = append(a.Potential, ca.Potential...)
		}
		a.ParB = true
		return a
	default:
		n := len(t.Children)
		acc := analyzeReference(t.Children[n-1])
		for i := n - 2; i >= 0; i-- {
			top := analyzeReference(t.Children[i])
			junction := Point{Group: t, Below: i}
			acc.Immediate = append(acc.Immediate, top.Immediate...)
			if top.ParB {
				acc.Immediate = append(acc.Immediate, top.Potential...)
				acc.Immediate = append(acc.Immediate, junction)
			} else {
				acc.Potential = append(acc.Potential, top.Potential...)
				acc.Potential = append(acc.Potential, junction)
			}
		}
		return acc
	}
}

// Property: Analyze matches the reference implementation point for point
// — same Group pointer, same Below, same order — on fresh and on reused
// destination slices, and leaves whatever the destinations already held
// in place.
func TestAnalyzeMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(31))}
	var imm, pot []Point
	sentinel := Point{Below: -1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 5)
		want := analyzeReference(tr)
		got := Analyze(tr, nil, nil)
		if !slices.Equal(got.Immediate, want.Immediate) || !slices.Equal(got.Potential, want.Potential) || got.ParB != want.ParB {
			return false
		}
		reused := Analyze(tr, append(imm[:0], sentinel), append(pot[:0], sentinel))
		imm, pot = reused.Immediate, reused.Potential
		return reused.ParB == want.ParB &&
			imm[0] == sentinel && slices.Equal(imm[1:], want.Immediate) &&
			pot[0] == sentinel && slices.Equal(pot[1:], want.Potential)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Rearrange and RearrangeDeep share subtrees with their input
// instead of copying it, so they must never modify it: the input renders
// the same and keeps the same discharge points afterwards.
func TestRearrangeLeavesInputUnchangedQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(37))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 5)
		s, pts := tr.String(), GateDischargePoints(tr)
		for _, r := range []*sp.Tree{Rearrange(tr), RearrangeDeep(tr)} {
			if r.Validate() != nil || tr.String() != s || !slices.Equal(GateDischargePoints(tr), pts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
