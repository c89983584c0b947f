package logic

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildMajority returns maj(a,b,c) = ab + bc + ca.
func buildMajority(t *testing.T) *Network {
	t.Helper()
	n := New("maj3")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	ab := n.AddGate(And, a, b)
	bc := n.AddGate(And, b, c)
	ca := n.AddGate(And, c, a)
	out := n.AddGate(Or, n.AddGate(Or, ab, bc), ca)
	n.AddOutput("maj", out)
	if err := n.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return n
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{Input: "input", And: "and", Nor: "nor", Xnor: "xnor", Const1: "const1"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpFaninBounds(t *testing.T) {
	if Input.MinFanin() != 0 || Input.MaxFanin() != 0 {
		t.Error("Input fanin bounds wrong")
	}
	if Not.MinFanin() != 1 || Not.MaxFanin() != 1 {
		t.Error("Not fanin bounds wrong")
	}
	if And.MinFanin() != 2 || And.MaxFanin() != -1 {
		t.Error("And fanin bounds wrong")
	}
}

func TestMajorityEval(t *testing.T) {
	n := buildMajority(t)
	tt, err := n.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tt {
		a, b, c := i&1 != 0, i&2 != 0, i&4 != 0
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		if want := ones >= 2; row[0] != want {
			t.Errorf("maj(%v,%v,%v) = %v, want %v", a, b, c, row[0], want)
		}
	}
}

func TestEvalAllOps(t *testing.T) {
	n := New("ops")
	a := n.AddInput("a")
	b := n.AddInput("b")
	gates := map[string]int{
		"buf":  n.AddGate(Buf, a),
		"not":  n.AddGate(Not, a),
		"and":  n.AddGate(And, a, b),
		"or":   n.AddGate(Or, a, b),
		"nand": n.AddGate(Nand, a, b),
		"nor":  n.AddGate(Nor, a, b),
		"xor":  n.AddGate(Xor, a, b),
		"xnor": n.AddGate(Xnor, a, b),
		"c0":   n.AddConst(false),
		"c1":   n.AddConst(true),
	}
	for name, id := range gates {
		n.AddOutput(name, id)
	}
	want := func(name string, av, bv bool) bool {
		switch name {
		case "buf":
			return av
		case "not":
			return !av
		case "and":
			return av && bv
		case "or":
			return av || bv
		case "nand":
			return !(av && bv)
		case "nor":
			return !(av || bv)
		case "xor":
			return av != bv
		case "xnor":
			return av == bv
		case "c0":
			return false
		case "c1":
			return true
		}
		t.Fatalf("unknown gate %q", name)
		return false
	}
	for i := 0; i < 4; i++ {
		av, bv := i&1 != 0, i&2 != 0
		out, err := n.Eval([]bool{av, bv})
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range n.Outputs {
			if out[j] != want(o.Name, av, bv) {
				t.Errorf("%s(%v,%v) = %v, want %v", o.Name, av, bv, out[j], want(o.Name, av, bv))
			}
		}
	}
}

func TestWideGates(t *testing.T) {
	n := New("wide")
	var ins []int
	for i := 0; i < 5; i++ {
		ins = append(ins, n.AddInput(string(rune('a'+i))))
	}
	and5 := n.AddGate(And, ins...)
	or5 := n.AddGate(Or, ins...)
	xor5 := n.AddGate(Xor, ins...)
	n.AddOutput("and5", and5)
	n.AddOutput("or5", or5)
	n.AddOutput("xor5", xor5)
	for i := 0; i < 32; i++ {
		in := make([]bool, 5)
		ones := 0
		for j := range in {
			in[j] = i&(1<<j) != 0
			if in[j] {
				ones++
			}
		}
		out, err := n.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (ones == 5) || out[1] != (ones > 0) || out[2] != (ones%2 == 1) {
			t.Errorf("wide gates wrong for input %05b: got %v", i, out)
		}
	}
}

func TestEvalInputCountMismatch(t *testing.T) {
	n := buildMajority(t)
	if _, err := n.Eval([]bool{true}); err == nil {
		t.Error("Eval with wrong input count should fail")
	}
}

func TestTruthTableTooLarge(t *testing.T) {
	n := New("big")
	for i := 0; i < 21; i++ {
		n.AddInput(string(rune('a' + i)))
	}
	if _, err := n.TruthTable(); err == nil {
		t.Error("TruthTable over 21 inputs should fail")
	}
}

func TestAddGatePanics(t *testing.T) {
	n := New("p")
	a := n.AddInput("a")
	assertPanics(t, "forward fanin", func() { n.AddGate(And, a, 99) })
	assertPanics(t, "fanin count", func() { n.AddGate(And, a) })
	assertPanics(t, "not arity", func() { n.AddGate(Not, a, a) })
	assertPanics(t, "output range", func() { n.AddOutput("x", 42) })
}

func assertPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestLevelsAndDepth(t *testing.T) {
	n := buildMajority(t)
	levels := n.Levels()
	// inputs level 0, first ANDs level 1, inner OR level 2, outer OR level 3
	want := []int{0, 0, 0, 1, 1, 1, 2, 3}
	for i, lv := range levels {
		if lv != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, lv, want[i])
		}
	}
	if n.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", n.Depth())
	}
}

func TestStatsAndString(t *testing.T) {
	n := buildMajority(t)
	s := n.Stats()
	if s.Inputs != 3 || s.Outputs != 1 || s.Gates != 5 || s.Depth != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.ByOp[And] != 3 || s.ByOp[Or] != 2 {
		t.Errorf("ByOp = %v", s.ByOp)
	}
	if !strings.Contains(n.String(), "maj3") {
		t.Errorf("String() = %q", n.String())
	}
	if !strings.Contains(n.Dump(), "output \"maj\"") {
		t.Errorf("Dump missing output line:\n%s", n.Dump())
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := buildMajority(t)
	c := n.Clone()
	c.Nodes[3].Fanin[0] = 2
	if n.Nodes[3].Fanin[0] == 2 {
		t.Error("Clone shares fanin slices")
	}
	for i := range n.Nodes {
		if c.Nodes[i].Name != n.Nodes[i].Name {
			t.Errorf("Clone renamed node %d: %q, want %q", i, c.Nodes[i].Name, n.Nodes[i].Name)
		}
	}
	out1, _ := n.Eval([]bool{true, true, false})
	if out1[0] != true {
		t.Error("original corrupted by clone mutation")
	}
	// Each Fanin is a view into one shared store: appending to a view
	// must copy, not write over the next gate's fanins.
	for _, net := range []*Network{n, c} {
		want := append([]int(nil), net.Nodes[4].Fanin...)
		_ = append(net.Nodes[3].Fanin, 0, 0, 0)
		if got := net.Nodes[4].Fanin; !slices.Equal(got, want) {
			t.Errorf("appending to node 3's fanins changed node 4's: %v, want %v", got, want)
		}
	}
}

// TestGrowPresizes pins the presize contract: after one Grow covering
// them, adding gates allocates nothing, so a network costs the same
// allocations whatever its size; without it the fanin store grows by
// whole chunks, not by one slice per gate.
func TestGrowPresizes(t *testing.T) {
	build := func(gates int, grow bool) *Network {
		n := New("chain")
		if grow {
			n.Grow(gates+2, 2*gates)
		}
		n.AddInput("a")
		n.AddInput("b")
		for i := 0; i < gates; i++ {
			n.AddGate(And, i, i+1)
		}
		return n
	}
	allocs := func(gates int, grow bool) float64 {
		return testing.AllocsPerRun(10, func() { build(gates, grow) })
	}
	if small, large := allocs(10, true), allocs(4000, true); large != small {
		t.Errorf("after Grow, 4000 gates take %.0f allocations and 10 gates %.0f: adding a gate allocates", large, small)
	}
	if a := allocs(4000, false); a > 100 {
		t.Errorf("4000 gates without Grow: %.0f allocations, want a few per doubling", a)
	}
	if got, want := build(1000, false).Dump(), build(1000, true).Dump(); got != want {
		t.Errorf("presizing changed the network:\n%s\nwant\n%s", got, want)
	}
}

func TestShuffledTwinSameFunction(t *testing.T) {
	n := buildMajority(t)
	n.AddOutput("one", n.AddConst(true))
	for seed := int64(1); seed <= 5; seed++ {
		twin := n.ShuffledTwin(rand.New(rand.NewSource(seed)))
		if err := twin.Check(); err != nil {
			t.Fatalf("seed %d: twin invalid: %v", seed, err)
		}
		if twin.Len() != n.Len() || len(twin.Inputs) != len(n.Inputs) {
			t.Fatalf("seed %d: twin has %d nodes / %d inputs, want %d / %d",
				seed, twin.Len(), len(twin.Inputs), n.Len(), len(n.Inputs))
		}
		for i, o := range n.Outputs {
			if twin.Outputs[i].Name != o.Name {
				t.Fatalf("seed %d: output %d is %q, want %q", seed, i, twin.Outputs[i].Name, o.Name)
			}
		}
		want, _ := n.TruthTable()
		got, _ := twin.TruthTable()
		for r := range want {
			for c := range want[r] {
				if got[r][c] != want[r][c] {
					t.Fatalf("seed %d: row %d output %d differs", seed, r, c)
				}
			}
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	n := buildMajority(t)
	n.Nodes[3].Fanin[0] = 7 // forward reference
	if err := n.Check(); err == nil {
		t.Error("Check should catch forward fanin")
	}
	n = buildMajority(t)
	n.Outputs[0].Node = 99
	if err := n.Check(); err == nil {
		t.Error("Check should catch out-of-range output")
	}
	n = buildMajority(t)
	n.Inputs[0] = 3 // an AND node
	if err := n.Check(); err == nil {
		t.Error("Check should catch non-input in input list")
	}
}

func TestRandomVectorsDeterministic(t *testing.T) {
	n := buildMajority(t)
	a := n.RandomVectors(rand.New(rand.NewSource(7)), 16)
	b := n.RandomVectors(rand.New(rand.NewSource(7)), 16)
	if len(a) != 16 || len(a[0]) != 3 {
		t.Fatalf("vector shape wrong: %d x %d", len(a), len(a[0]))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("RandomVectors not deterministic for equal seeds")
			}
		}
	}
}
