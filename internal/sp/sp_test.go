package sp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func leaf(name string) *Tree { return NewLeaf(name, false, -1) }

// flat flattens a fixture tree, dropping its input names.
func flat(t *Tree) Span {
	s, _ := Flatten(t)
	return s
}

// render renders a flattened fixture with its input names; gate-driven
// leaves render as g<id>.
func render(s Span, names []string) string {
	return s.Tree(func(n Node) string {
		if g := n.Gate(); g >= 0 {
			return fmt.Sprintf("g%d", g)
		}
		return names[n.Input()]
	}).String()
}

// fig2a builds (A+B+C)*D from paper figure 2(a): parallel stack on top,
// D at the bottom.
func fig2a() *Tree {
	return NewSeries(NewParallel(leaf("A"), leaf("B"), leaf("C")), leaf("D"))
}

func TestKindString(t *testing.T) {
	if Leaf.String() != "leaf" || Series.String() != "series" || Parallel.String() != "parallel" {
		t.Error("Kind.String broken")
	}
}

func TestWidthHeight(t *testing.T) {
	s := flat(fig2a())
	if s.Width() != 3 {
		t.Errorf("Width = %d, want 3", s.Width())
	}
	if s.Height() != 2 {
		t.Errorf("Height = %d, want 2", s.Height())
	}
	if s.Transistors() != 4 {
		t.Errorf("Transistors = %d, want 4", s.Transistors())
	}
	if l := flat(leaf("x")); l.Width() != 1 || l.Height() != 1 {
		t.Error("leaf dimensions wrong")
	}
}

func TestFig3Dimensions(t *testing.T) {
	// Paper fig 3: AND of two inputs is a series pair: W=1, H=2.
	and := NewSeries(leaf("a"), leaf("b"))
	if s := flat(and); s.Width() != 1 || s.Height() != 2 {
		t.Errorf("series pair: W=%d H=%d, want 1,2", s.Width(), s.Height())
	}
	// OR of two series pairs: W=2, H=2 (the {2,2} solution, cost 4).
	or := flat(NewParallel(and, NewSeries(leaf("c"), leaf("d"))))
	if or.Width() != 2 || or.Height() != 2 {
		t.Errorf("or of pairs: W=%d H=%d, want 2,2", or.Width(), or.Height())
	}
	if or.Transistors() != 4 {
		t.Errorf("or of pairs: %d transistors, want 4", or.Transistors())
	}
}

func TestFlattening(t *testing.T) {
	s := NewSeries(NewSeries(leaf("a"), leaf("b")), leaf("c"))
	if len(s.Children) != 3 {
		t.Errorf("nested series not flattened: %d children", len(s.Children))
	}
	p := NewParallel(leaf("a"), NewParallel(leaf("b"), leaf("c")))
	if len(p.Children) != 3 {
		t.Errorf("nested parallel not flattened: %d children", len(p.Children))
	}
	for _, tr := range []*Tree{s, p} {
		f := flat(tr)
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
		if len(f) != 4 || f[3].Arg != 3 {
			t.Errorf("span %v: want three leaves under one root", f)
		}
	}
}

func TestSingleChildComposition(t *testing.T) {
	l := leaf("a")
	if NewSeries(l) != l || NewParallel(l) != l {
		t.Error("single-child composition should return the child")
	}
}

func TestCompositionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSeries() },
		func() { NewSeries(leaf("a"), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParallelAtBottom(t *testing.T) {
	if flat(leaf("a")).ParallelAtBottom() {
		t.Error("leaf has no parallel bottom")
	}
	if !flat(NewParallel(leaf("a"), leaf("b"))).ParallelAtBottom() {
		t.Error("parallel node is parallel at bottom")
	}
	// (A+B+C)*D: D at the bottom -> false.
	if flat(fig2a()).ParallelAtBottom() {
		t.Error("fig2a bottom is leaf D")
	}
	// D*(A+B+C): parallel at the bottom -> true.
	flipped := NewSeries(leaf("D"), NewParallel(leaf("A"), leaf("B"), leaf("C")))
	if !flat(flipped).ParallelAtBottom() {
		t.Error("flipped fig2a has parallel bottom")
	}
}

func TestContainsParallel(t *testing.T) {
	chain := NewSeries(leaf("a"), leaf("b"), leaf("c"))
	if flat(chain).ContainsParallel() {
		t.Error("pure series contains no parallel")
	}
	if !flat(fig2a()).ContainsParallel() {
		t.Error("fig2a contains a parallel stack")
	}
}

func TestHasPIAndGateRef(t *testing.T) {
	g, pi := GateLeaf(7), InputLeaf(2, true)
	if g.FromPI() || g.Gate() != 7 || g.Input() != -1 {
		t.Errorf("gate leaf: FromPI %v, Gate %d, Input %d", g.FromPI(), g.Gate(), g.Input())
	}
	if !pi.FromPI() || pi.Gate() != -1 || pi.Input() != 2 || !pi.Negated {
		t.Errorf("input leaf: FromPI %v, Gate %d, Input %d", pi.FromPI(), pi.Gate(), pi.Input())
	}
	if s := flat(NewSeries(NewLeaf("g1", false, 7), leaf("a"))); !s.HasPI() || s[0] != g {
		t.Error("span with PI leaf should report HasPI and keep the gate ref")
	}
	if flat(NewSeries(NewLeaf("g1", false, 7), NewLeaf("g2", false, 8))).HasPI() {
		t.Error("all-gate span should not report HasPI")
	}
}

func TestConducts(t *testing.T) {
	s, names := Flatten(fig2a()) // (A+B+C)*D
	if fmt.Sprint(names) != "[A B C D]" {
		t.Fatalf("names = %v", names)
	}
	cases := []struct {
		a, b, c, d bool
		want       bool
	}{
		{false, false, false, false, false},
		{true, false, false, false, false}, // D off blocks
		{true, false, false, true, true},
		{false, true, false, true, true},
		{false, false, true, true, true},
		{false, false, false, true, false},
		{true, true, true, true, true},
	}
	for _, c := range cases {
		v := []bool{c.a, c.b, c.c, c.d}
		if got := s.Conducts(v, nil); got != c.want {
			t.Errorf("Conducts(%v) = %v, want %v", v, got, c.want)
		}
	}
	gated := flat(NewSeries(NewLeaf("g", false, 1), leaf("a")))
	if !gated.Conducts([]bool{true}, []bool{false, true}) || gated.Conducts([]bool{true}, []bool{true, false}) {
		t.Error("a gate-driven leaf conducts exactly when its gate's output is high")
	}
}

func TestConductsNegatedLeaf(t *testing.T) {
	s := flat(NewSeries(NewLeaf("a", true, -1), leaf("b")))
	if !s.Conducts([]bool{false, true}, nil) {
		t.Error("!a * b should conduct with a=0,b=1")
	}
	if s.Conducts([]bool{true, true}, nil) {
		t.Error("!a * b should block with a=1")
	}
}

func TestString(t *testing.T) {
	if s := fig2a().String(); s != "(A+B+C)*D" {
		t.Errorf("String = %q, want (A+B+C)*D", s)
	}
	neg := NewParallel(NewLeaf("a", true, -1), leaf("b"))
	if s := neg.String(); s != "!a+b" {
		t.Errorf("String = %q, want !a+b", s)
	}
	nested := NewParallel(NewSeries(leaf("a"), leaf("b")), leaf("c"))
	if s := nested.String(); s != "a*b+c" {
		t.Errorf("String = %q, want a*b+c", s)
	}
	// A span renders back to its tree's expression.
	for _, tr := range []*Tree{fig2a(), neg, nested} {
		if s, names := Flatten(tr); render(s, names) != tr.String() {
			t.Errorf("span renders as %q, tree as %q", render(s, names), tr.String())
		}
	}
}

// TestLeavesOrder: postorder keeps the leaves in the tree's left-to-right
// (top-to-bottom) order, and Children finds a node's children in order.
func TestLeavesOrder(t *testing.T) {
	s, names := Flatten(fig2a())
	got := ""
	for _, n := range s {
		if n.Kind == Leaf {
			got += names[n.Input()]
		}
	}
	if got != "ABCD" {
		t.Errorf("leaf order = %q, want ABCD", got)
	}
	root := len(s) - 1
	if c := s.Children(root, nil); len(c) != 2 || s[c[0]].Kind != Parallel || c[1] != root-1 {
		t.Errorf("root children = %v in %v", c, s)
	}
	if s.Start(root) != 0 || s.Start(3) != 0 || s.Start(2) != 2 {
		t.Errorf("Start wrong on %v", s)
	}
}

func TestValidateRejects(t *testing.T) {
	a, b := InputLeaf(0, false), InputLeaf(1, false)
	for _, c := range []struct {
		why string
		s   Span
	}{
		{"empty span", nil},
		{"1-child series", Span{a, Compose(Series, 1)}},
		{"series missing a child", Span{a, Compose(Series, 2)}},
		{"two roots", Span{a, b}},
		{"unflattened nesting", Span{a, b, Compose(Series, 2), a, Compose(Series, 2)}},
		{"unknown kind", Span{{Kind: Kind(9)}}},
	} {
		if c.s.Validate() == nil {
			t.Errorf("%s: %v should be invalid", c.why, c.s)
		}
	}
	if err := (Span{a, b, Compose(Parallel, 2), a, Compose(Series, 2)}).Validate(); err != nil {
		t.Errorf("(a+b)*a: %v", err)
	}
}

// randomTree builds a random valid SP tree over k signals.
func randomTree(rng *rand.Rand, depth int) *Tree {
	if depth == 0 || rng.Intn(3) == 0 {
		return NewLeaf(string(rune('a'+rng.Intn(6))), rng.Intn(4) == 0, -1)
	}
	k := 2 + rng.Intn(2)
	children := make([]*Tree, k)
	for i := range children {
		children[i] = randomTree(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return NewSeries(children...)
	}
	return NewParallel(children...)
}

// Property: width*height bounds, leaf count consistency and validation
// hold for arbitrary flattened trees, and the rendering form round-trips.
func TestTreePropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 4)
		s, names := Flatten(tr)
		m, err := s.Measure()
		if err != nil {
			return false
		}
		n, w, h := m.Transistors, m.Width, m.Height
		if n != s.Transistors() || w < 1 || h < 1 || w > n || h > n || w*h < n {
			return false
		}
		return render(s, names) == tr.String()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
