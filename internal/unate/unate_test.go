package unate

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/logic"
)

// lower runs Decompose and Convert and checks the result is unate.
func lower(n *logic.Network) (*Decomposed, *Result, error) {
	d, err := Decompose(n)
	if err != nil {
		return nil, nil, err
	}
	res, err := d.Convert()
	if err != nil {
		return nil, nil, err
	}
	return d, res, IsUnate(res.Network)
}

func mustConvert(t *testing.T, n *logic.Network) *Result {
	t.Helper()
	d, res, err := lower(n)
	if err != nil {
		t.Fatal(err)
	}
	if !withinDuplicationBound(d, res) {
		t.Errorf("duplication exceeded the 2x bound:\n%s", res.Network.Dump())
	}
	return res
}

// withinDuplicationBound is the paper's bound: bubble pushing at most
// doubles the decomposed AND/OR gates.
func withinDuplicationBound(d *Decomposed, res *Result) bool {
	s := res.Network.Stats()
	return s.ByOp[logic.And]+s.ByOp[logic.Or] <= 2*(len(d.nodes)-len(d.src.Inputs))
}

// equivalent reports whether a and b compute identical functions over
// all input assignments.
func equivalent(a, b *logic.Network) bool {
	ta, err := a.TruthTable()
	if err != nil {
		return false
	}
	tb, err := b.TruthTable()
	if err != nil || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		for j := range ta[i] {
			if ta[i][j] != tb[i][j] {
				return false
			}
		}
	}
	return true
}

func checkEquivalent(t *testing.T, a, b *logic.Network) {
	t.Helper()
	if !equivalent(a, b) {
		t.Fatalf("functional mismatch:\n%s\n%s", a.Dump(), b.Dump())
	}
}

func inputs(n *logic.Network, k int) []int {
	var ins []int
	for i := 0; i < k; i++ {
		ins = append(ins, n.AddInput(string(rune('a'+i))))
	}
	return ins
}

func TestDecomposeWideGates(t *testing.T) {
	n := logic.New("wide")
	ins := inputs(n, 7)
	n.AddOutput("and7", n.AddGate(logic.And, ins...))
	n.AddOutput("or7", n.AddGate(logic.Or, ins...))
	n.AddOutput("nand7", n.AddGate(logic.Nand, ins...))
	n.AddOutput("nor7", n.AddGate(logic.Nor, ins...))
	n.AddOutput("xor7", n.AddGate(logic.Xor, ins...))
	n.AddOutput("xnor7", n.AddGate(logic.Xnor, ins...))
	checkEquivalent(t, n, mustConvert(t, n).Network)
}

func TestDecomposeBalancedDepth(t *testing.T) {
	n := logic.New("bal")
	n.AddOutput("f", n.AddGate(logic.And, inputs(n, 16)...))
	if got := mustConvert(t, n).Network.Depth(); got != 4 {
		t.Errorf("16-input AND depth = %d, want 4 (balanced)", got)
	}
}

func TestDecomposeConstantFolding(t *testing.T) {
	n := logic.New("const")
	a := n.AddInput("a")
	one := n.AddConst(true)
	zero := n.AddConst(false)
	n.AddOutput("a_and_1", n.AddGate(logic.And, a, one))                      // = a
	n.AddOutput("a_and_0", n.AddGate(logic.And, a, zero))                     // = 0
	n.AddOutput("a_or_1", n.AddGate(logic.Or, a, one))                        // = 1
	n.AddOutput("a_or_0", n.AddGate(logic.Or, a, zero))                       // = a
	n.AddOutput("a_and_na", n.AddGate(logic.And, a, n.AddGate(logic.Not, a))) // = 0
	n.AddOutput("a_or_na", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))   // = 1
	u := mustConvert(t, n).Network
	checkEquivalent(t, n, u)
	if s := u.Stats(); s.Gates != 0 || s.ByOp[logic.Const0] != 1 || s.ByOp[logic.Const1] != 1 {
		t.Errorf("constant network not folded to one node per constant:\n%s", u.Dump())
	}
}

func TestDecomposeIdempotence(t *testing.T) {
	n := logic.New("idem")
	a := n.AddInput("a")
	n.AddOutput("f", n.AddGate(logic.And, a, a))
	if s := mustConvert(t, n).Network.Stats(); s.Gates != 0 {
		t.Errorf("AND(a,a) should fold to a, got %d gates", s.Gates)
	}
}

func TestDecomposeStructuralSharing(t *testing.T) {
	n := logic.New("share")
	a := n.AddInput("a")
	b := n.AddInput("b")
	// Two separate AND(a,b) gates plus the commuted AND(b,a).
	g1 := n.AddGate(logic.And, a, b)
	g2 := n.AddGate(logic.And, a, b)
	g3 := n.AddGate(logic.And, b, a)
	n.AddOutput("f", n.AddGate(logic.Or, n.AddGate(logic.Or, g1, g2), g3))
	u := mustConvert(t, n).Network
	checkEquivalent(t, n, u)
	if ands := u.Stats().ByOp[logic.And]; ands != 1 {
		t.Errorf("structural hashing left %d AND gates, want 1:\n%s", ands, u.Dump())
	}
}

// Two source inverters over one input become one complemented input
// literal.
func TestDecomposeSharedInverter(t *testing.T) {
	n := logic.New("inv")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", n.AddGate(logic.And, n.AddGate(logic.Not, a), b))
	n.AddOutput("g", n.AddGate(logic.And, n.AddGate(logic.Not, a), c))
	u := mustConvert(t, n).Network
	checkEquivalent(t, n, u)
	if nots := u.Stats().ByOp[logic.Not]; nots != 1 {
		t.Errorf("input literal not shared: %d NOT nodes", nots)
	}
}

func TestDecomposeDoubleNegation(t *testing.T) {
	n := logic.New("dn")
	a := n.AddInput("a")
	n.AddOutput("f", n.AddGate(logic.Not, n.AddGate(logic.Not, a)))
	u := mustConvert(t, n).Network
	checkEquivalent(t, n, u)
	if s := u.Stats(); s.Gates != 0 {
		t.Errorf("double negation should vanish, got %d gates", s.Gates)
	}
}

func TestDecomposeXor2Form(t *testing.T) {
	n := logic.New("x2")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	u := mustConvert(t, n).Network
	checkEquivalent(t, n, u)
	// (a & !b) | (!a & b): 2 AND + 1 OR + 2 input literals
	if s := u.Stats(); s.ByOp[logic.And] != 2 || s.ByOp[logic.Or] != 1 || s.ByOp[logic.Not] != 2 {
		t.Errorf("xor2 shape: %v", s.ByOp)
	}
}

func TestDecomposePreservesNames(t *testing.T) {
	n := logic.New("names")
	a := n.AddInput("alpha")
	b := n.AddInput("beta")
	n.AddOutput("out", n.AddGate(logic.And, a, b))
	u := mustConvert(t, n).Network
	if len(u.Inputs) != 2 || u.Nodes[u.Inputs[0]].Name != "alpha" || u.Nodes[u.Inputs[1]].Name != "beta" {
		t.Error("input names lost")
	}
	if u.Outputs[0].Name != "out" || u.Name != "names.unate" {
		t.Errorf("output %q of network %q", u.Outputs[0].Name, u.Name)
	}
}

// Decompose reports, rather than panics on, a network built around the
// Add methods: an Input node missing from Inputs, or an unknown op.
func TestDecomposeRejectsMalformed(t *testing.T) {
	n := logic.New("stray")
	n.Nodes = append(n.Nodes, logic.Node{Op: logic.Input})
	n.AddOutput("f", 0)
	if _, err := Decompose(n); err == nil {
		t.Error("Decompose accepted an input missing from Inputs")
	}
	m := logic.New("unknown")
	m.Nodes = append(m.Nodes, logic.Node{Op: logic.Op(200)})
	m.AddOutput("f", 0)
	if _, err := Decompose(m); err == nil {
		t.Error("Decompose accepted an unknown op")
	}
}

// A source whose inputs share a name never reaches Convert: the unate
// network would carry both under the one name that a mapping is read
// back by. Decompose rejects it, and so rejects it on every path to a
// mapper, strash on or off; a later run over the same pooled scratch is
// unaffected.
func TestDecomposeRejectsDuplicateInputNames(t *testing.T) {
	n := logic.New("dup")
	a, b := n.AddInput("a"), n.AddInput("a")
	n.AddOutput("f", n.AddGate(logic.And, a, b))
	if _, err := Decompose(n); err == nil || !strings.Contains(err.Error(), `duplicate input name "a"`) {
		t.Errorf("Decompose(%s) = %v, want a duplicate-name error", n.Name, err)
	}
	// A wide source: distinct names pass, and one repeat far from its
	// first use is caught.
	wide := func(repeat bool) *logic.Network {
		w := logic.New("wide")
		ins := make([]int, 100)
		for i := range ins {
			ins[i] = w.AddInput(fmt.Sprintf("x%d", i))
		}
		if repeat {
			ins = append(ins, w.AddInput("x57"))
		}
		w.AddOutput("f", w.AddGate(logic.Or, ins...))
		return w
	}
	if _, err := Decompose(wide(true)); err == nil || !strings.Contains(err.Error(), `"x57"`) {
		t.Errorf("Decompose(wide with x57 twice) = %v, want a duplicate-name error", err)
	}
	if _, _, err := lower(wide(false)); err != nil {
		t.Errorf("distinct names after a rejection: %v", err)
	}
}

func TestConvertSimpleNand(t *testing.T) {
	n := logic.New("nand")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Nand, a, b))
	res := mustConvert(t, n)
	checkEquivalent(t, n, res.Network)
	// !(a&b) = !a | !b: one OR, two input inverters.
	s := res.Network.Stats()
	if s.ByOp[logic.Or] != 1 || s.ByOp[logic.Not] != 2 || s.ByOp[logic.And] != 0 {
		t.Errorf("nand conversion shape: %v", s.ByOp)
	}
}

func TestConvertPushThroughChain(t *testing.T) {
	// !(!(a & b) & c) = (a & b) | !c : inverters cancel through two levels.
	n := logic.New("chain")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	inner := n.AddGate(logic.Nand, a, b)
	n.AddOutput("f", n.AddGate(logic.Nand, inner, c))
	res := mustConvert(t, n)
	checkEquivalent(t, n, res.Network)
	s := res.Network.Stats()
	if s.ByOp[logic.And] != 1 || s.ByOp[logic.Or] != 1 || s.ByOp[logic.Not] != 1 {
		t.Errorf("chain conversion shape: %v (want 1 and, 1 or, 1 not)", s.ByOp)
	}
}

func TestConvertDuplicationWhenBothPhasesNeeded(t *testing.T) {
	// g = a & b used both directly and complemented: must duplicate.
	n := logic.New("dup")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("pos", n.AddGate(logic.And, g, c))
	n.AddOutput("neg", n.AddGate(logic.And, n.AddGate(logic.Not, g), c))
	res := mustConvert(t, n)
	checkEquivalent(t, n, res.Network)
	if res.DuplicatedNodes != 1 {
		t.Errorf("DuplicatedNodes = %d, want 1 (g in both phases)", res.DuplicatedNodes)
	}
}

func TestConvertNoDuplicationSinglePhase(t *testing.T) {
	n := logic.New("nodup")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("f", n.AddGate(logic.Or, g, a))
	res := mustConvert(t, n)
	if res.DuplicatedNodes != 0 {
		t.Errorf("unexpected duplication: %d", res.DuplicatedNodes)
	}
}

func TestConvertXorBothPhasesShareInputLiterals(t *testing.T) {
	n := logic.New("xor")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	res := mustConvert(t, n)
	checkEquivalent(t, n, res.Network)
	// Input inverters should be shared: at most one NOT per input.
	if nots := res.Network.Stats().ByOp[logic.Not]; nots > 2 {
		t.Errorf("input inverters not shared: %d NOT nodes", nots)
	}
}

func TestConvertConstOutputs(t *testing.T) {
	n := logic.New("const")
	a := n.AddInput("a")
	n.AddOutput("zero", n.AddGate(logic.And, a, n.AddGate(logic.Not, a)))
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))
	res := mustConvert(t, n)
	checkEquivalent(t, n, res.Network)
}

func TestIsUnateRejections(t *testing.T) {
	n := logic.New("u1")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(logic.And, a, b)
	n.AddGate(logic.Not, g) // inverter over a gate
	if IsUnate(n) == nil {
		t.Error("IsUnate should reject internal inverters")
	}

	n2 := logic.New("u2")
	x := n2.AddInput("x")
	y := n2.AddInput("y")
	n2.AddGate(logic.Xor, x, y)
	if IsUnate(n2) == nil {
		t.Error("IsUnate should reject XOR")
	}

	n3 := logic.New("u3")
	p := n3.AddInput("p")
	q := n3.AddInput("q")
	r := n3.AddInput("r")
	n3.AddGate(logic.And, p, q, r)
	if IsUnate(n3) == nil {
		t.Error("IsUnate should reject 3-input AND")
	}
}

func TestIsLeaf(t *testing.T) {
	n := logic.New("leaf")
	a := n.AddInput("a")
	b := n.AddInput("b")
	na := n.AddGate(logic.Not, a)
	g := n.AddGate(logic.And, na, b)
	if !IsLeaf(n, a) || !IsLeaf(n, na) {
		t.Error("inputs and input literals are leaves")
	}
	if IsLeaf(n, g) {
		t.Error("gates are not leaves")
	}
}

// quickLowering is the property both quick tests check on networks
// from gen: lowering succeeds, is unate, stays within the 2x
// duplication bound and preserves function.
func quickLowering(t *testing.T, seed int64, gen func(*rand.Rand) *logic.Network) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}
	f := func(seed int64) bool {
		n := gen(rand.New(rand.NewSource(seed)))
		d, res, err := lower(n)
		return err == nil && withinDuplicationBound(d, res) && equivalent(n, res.Network)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: wide gates, buffers and XORs lower to an equivalent network.
func TestDecomposeEquivalenceQuick(t *testing.T) {
	quickLowering(t, 42, func(rng *rand.Rand) *logic.Network {
		return randomNetwork(rng, 3+rng.Intn(5), 5+rng.Intn(25), true)
	})
}

// Property: 2-input networks convert to an equivalent unate network.
func TestConvertEquivalenceQuick(t *testing.T) {
	quickLowering(t, 5, func(rng *rand.Rand) *logic.Network {
		return randomNetwork(rng, 3+rng.Intn(4), 4+rng.Intn(20), false)
	})
}

// randomNetwork builds nin inputs and ngates gates over them, two
// outputs; wide gates take 2-4 fanins and Buf joins the ops.
func randomNetwork(rng *rand.Rand, nin, ngates int, wide bool) *logic.Network {
	n := logic.New("rnd")
	pool := inputs(n, nin)
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	if wide {
		ops = append(ops, logic.Buf)
	}
	for i := 0; i < ngates; i++ {
		op := ops[rng.Intn(len(ops))]
		k := 1
		if op.MaxFanin() != 1 {
			k = 2
			if wide {
				k += rng.Intn(3)
			}
		}
		fanin := make([]int, k)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(op, fanin...))
	}
	n.AddOutput("f", pool[len(pool)-1])
	n.AddOutput("g", pool[rng.Intn(len(pool))])
	return n
}

func TestPhaseString(t *testing.T) {
	if pos.String() != "pos" || neg.String() != "neg" {
		t.Error("phase.String broken")
	}
}
