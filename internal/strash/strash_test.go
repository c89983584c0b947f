package strash

import (
	"context"
	"math/rand"
	"testing"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
)

// equivalent compares the two networks' truth tables. Strash preserves
// the input set, input order and output order, so the tables must match
// row for row and column for column.
func equivalent(t *testing.T, a, b *logic.Network) {
	t.Helper()
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("interface changed: %d/%d inputs, %d/%d outputs",
			len(a.Inputs), len(b.Inputs), len(a.Outputs), len(b.Outputs))
	}
	ta, err := a.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ta {
		for j := range ta[i] {
			if ta[i][j] != tb[i][j] {
				t.Fatalf("row %d output %d (%q): %v became %v",
					i, j, a.Outputs[j].Name, ta[i][j], tb[i][j])
			}
		}
	}
}

// run strashes n, validating the output network and its counters.
func run(t *testing.T, n *logic.Network) *Result {
	t.Helper()
	r := Run(n)
	if err := r.Network.Check(); err != nil {
		t.Fatalf("strash output invalid: %v", err)
	}
	if r.Counters.NodesIn != len(n.Nodes) || r.Counters.NodesOut != len(r.Network.Nodes) {
		t.Fatalf("counters %+v disagree with node counts %d -> %d",
			r.Counters, len(n.Nodes), len(r.Network.Nodes))
	}
	return r
}

func TestMergesStructuralTwins(t *testing.T) {
	n := logic.New("twins")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	// Two ANDs over the same operands in opposite order, under different
	// names, each ORed with c: the whole cone must collapse to one AND
	// and one OR.
	g1 := n.AddGate(logic.And, a, b)
	g2 := n.AddGate(logic.And, b, a)
	n.Nodes[g1].Name, n.Nodes[g2].Name = "g1", "g2"
	o1 := n.AddGate(logic.Or, g1, c)
	o2 := n.AddGate(logic.Or, c, g2)
	n.AddOutput("y1", o1)
	n.AddOutput("y2", o2)

	r := run(t, n)
	equivalent(t, n, r.Network)
	if got := r.Network.Stats().Gates; got != 2 {
		t.Fatalf("want 2 surviving gates (one and, one or), got %d:\n%s", got, r.Network.Dump())
	}
	if r.Counters.Merged != 2 {
		t.Fatalf("want 2 merges (twin and, twin or), got %+v", r.Counters)
	}
	if y1, y2 := r.Network.Outputs[0].Node, r.Network.Outputs[1].Node; y1 != y2 {
		t.Fatalf("twin outputs driven by nodes %d and %d, want one:\n%s", y1, y2, r.Network.Dump())
	}
}

func TestConstantFolding(t *testing.T) {
	n := logic.New("consts")
	a, b := n.AddInput("a"), n.AddInput("b")
	c0, c1 := n.AddConst(false), n.AddConst(true)
	n.AddOutput("and0", n.AddGate(logic.And, a, c0))                       // = 0
	n.AddOutput("and1", n.AddGate(logic.And, a, c1))                       // = a
	n.AddOutput("or1", n.AddGate(logic.Or, a, c1))                         // = 1
	n.AddOutput("or0", n.AddGate(logic.Or, b, c0))                         // = b
	n.AddOutput("nand0", n.AddGate(logic.Nand, a, c0))                     // = 1
	n.AddOutput("nor0", n.AddGate(logic.Nor, a, c0))                       // = not a
	n.AddOutput("xor1", n.AddGate(logic.Xor, a, c1))                       // = not a
	n.AddOutput("xnor0", n.AddGate(logic.Xnor, a, c0))                     // = not a
	n.AddOutput("contr", n.AddGate(logic.And, a, n.AddGate(logic.Not, a))) // = 0
	n.AddOutput("taut", n.AddGate(logic.Or, b, n.AddGate(logic.Not, b)))   // = 1
	n.AddOutput("xx", n.AddGate(logic.Xor, a, a))                          // = 0
	n.AddOutput("xnotx", n.AddGate(logic.Xor, a, n.AddGate(logic.Not, a))) // = 1

	r := run(t, n)
	equivalent(t, n, r.Network)
	// Everything folds to a, b, not-a, not-b or a constant: at most the
	// two inverters survive as gates.
	if got := r.Network.Stats().Gates; got > 2 {
		t.Fatalf("constant folding left %d gates:\n%s", got, r.Network.Dump())
	}
	if r.Counters.Folded == 0 {
		t.Fatalf("no folds counted: %+v", r.Counters)
	}
}

// TestPOIsConstant pins the edge case of a primary output that is (or
// folds to) a constant: the constant node must survive DCE and keep the
// output binding.
func TestPOIsConstant(t *testing.T) {
	n := logic.New("constpo")
	a := n.AddInput("a")
	n.AddOutput("zero", n.AddConst(false))
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))

	r := run(t, n)
	equivalent(t, n, r.Network)
	for i, want := range []logic.Op{logic.Const0, logic.Const1} {
		got := r.Network.Nodes[r.Network.Outputs[i].Node].Op
		if got != want {
			t.Fatalf("output %d: want %v, got %v\n%s", i, want, got, r.Network.Dump())
		}
	}
	if r.Network.Stats().Gates != 0 {
		t.Fatalf("gates survived a constant-output network:\n%s", r.Network.Dump())
	}
}

// TestPOFedByPI pins the edge case of an output wired straight to an
// input: the binding and both names survive.
func TestPOFedByPI(t *testing.T) {
	n := logic.New("wire")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("y", a)
	n.AddOutput("z", n.AddGate(logic.Buf, b))

	r := run(t, n)
	equivalent(t, n, r.Network)
	for i, wantIn := range []string{"a", "b"} {
		po := r.Network.Outputs[i]
		node := r.Network.Nodes[po.Node]
		if node.Op != logic.Input || node.Name != wantIn {
			t.Fatalf("output %q: want input %q, got %v %q", po.Name, wantIn, node.Op, node.Name)
		}
	}
}

// TestDuplicatePOs pins the edge case of several outputs naming the same
// node: every binding survives, in order.
func TestDuplicatePOs(t *testing.T) {
	n := logic.New("duppo")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("y", g)
	n.AddOutput("y_copy", g)
	n.AddOutput("y_again", g)

	r := run(t, n)
	equivalent(t, n, r.Network)
	if len(r.Network.Outputs) != 3 {
		t.Fatalf("want 3 outputs, got %d", len(r.Network.Outputs))
	}
	want := []string{"y", "y_copy", "y_again"}
	for i, po := range r.Network.Outputs {
		if po.Name != want[i] {
			t.Fatalf("output %d renamed: want %q, got %q", i, want[i], po.Name)
		}
		if po.Node != r.Network.Outputs[0].Node {
			t.Fatalf("duplicate POs split across nodes: %v", r.Network.Outputs)
		}
	}
}

// TestAllDead pins the edge case of a network whose gates reach no
// primary output: DCE removes every gate and counts both dead, and the
// inputs survive in order (they are the interface).
func TestAllDead(t *testing.T) {
	n := logic.New("dead")
	a, b := n.AddInput("a"), n.AddInput("b")
	n.AddGate(logic.Not, n.AddGate(logic.And, a, b))

	r := run(t, n)
	if got := len(r.Network.Nodes); got != 2 {
		t.Fatalf("want only the 2 inputs to survive, got %d nodes:\n%s", got, r.Network.Dump())
	}
	if r.Counters.Dead != 2 {
		t.Fatalf("want 2 dead nodes, got %+v", r.Counters)
	}
	for i, want := range []string{"a", "b"} {
		if id := r.Network.Inputs[i]; r.Network.Nodes[id].Name != want {
			t.Fatalf("input %d is %q, want %q:\n%s", i, r.Network.Nodes[id].Name, want, r.Network.Dump())
		}
	}
}

// randomNetwork builds a seeded random DAG over the full op set,
// including deliberate redundancy: twin gates, buffers, double
// negations, constants and dead cones.
func randomNetwork(seed int64) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	n := logic.New("rand")
	ids := []int{}
	for i := 0; i < 3+rng.Intn(3); i++ {
		ids = append(ids, n.AddInput(string(rune('a'+i))))
	}
	if rng.Intn(2) == 0 {
		ids = append(ids, n.AddConst(rng.Intn(2) == 0))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	gates := 8 + rng.Intn(12)
	for i := 0; i < gates; i++ {
		switch rng.Intn(10) {
		case 0:
			ids = append(ids, n.AddGate(logic.Buf, ids[rng.Intn(len(ids))]))
		case 1, 2:
			ids = append(ids, n.AddGate(logic.Not, ids[rng.Intn(len(ids))]))
		default:
			op := ops[rng.Intn(len(ops))]
			k := 2 + rng.Intn(2)
			fanin := make([]int, k)
			for j := range fanin {
				fanin[j] = ids[rng.Intn(len(ids))]
			}
			id := n.AddGate(op, fanin...)
			if rng.Intn(3) == 0 { // twin with shuffled operands
				rng.Shuffle(len(fanin), func(x, y int) { fanin[x], fanin[y] = fanin[y], fanin[x] })
				n.AddGate(op, fanin...)
			}
			ids = append(ids, id)
		}
	}
	outs := 1 + rng.Intn(3)
	for i := 0; i < outs; i++ {
		n.AddOutput(string(rune('x'+i))+"_out", ids[len(ids)-1-rng.Intn(min(len(ids), 5))])
	}
	return n
}

func TestRandomEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		n := randomNetwork(seed)
		r := run(t, n)
		equivalent(t, n, r.Network)
		if r.Counters.NodesOut > r.Counters.NodesIn {
			t.Fatalf("seed %d: strash grew the network %d -> %d",
				seed, r.Counters.NodesIn, r.Counters.NodesOut)
		}
	}
}

// TestDeterministicAndIdempotent pins the two structural guarantees the
// strash-determinism gate relies on: repeated runs are byte-identical,
// and re-strashing a strashed network changes nothing.
func TestDeterministicAndIdempotent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		n := randomNetwork(seed)
		r1, r2 := run(t, n), run(t, n)
		if r1.Network.Dump() != r2.Network.Dump() {
			t.Fatalf("seed %d: two runs differ:\n%s\nvs\n%s", seed, r1.Network.Dump(), r2.Network.Dump())
		}
		again := run(t, r1.Network)
		if again.Network.Dump() != r1.Network.Dump() {
			t.Fatalf("seed %d: strash not idempotent:\n%s\nvs\n%s",
				seed, r1.Network.Dump(), again.Network.Dump())
		}
		cnt := again.Counters
		if cnt.Merged != 0 || cnt.Dead != 0 {
			t.Fatalf("seed %d: re-strash still reduced: %+v", seed, cnt)
		}
	}
}

// TestBadMergeFault proves the Flip-kind fault point corrupts results
// when (and only when) armed — the hook the fuzzer uses to demonstrate
// oracle catch + shrink for front-end bugs.
func TestBadMergeFault(t *testing.T) {
	n := logic.New("fault")
	a, b := n.AddInput("a"), n.AddInput("b")
	n.AddOutput("and", n.AddGate(logic.And, a, b))
	n.AddOutput("or", n.AddGate(logic.Or, a, b))

	reg := faultpoint.New(1)
	reg.Arm(PointBadMerge, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 1})
	ctx := faultpoint.With(context.Background(), reg)
	r := RunContext(ctx, n)
	if reg.Fired()[PointBadMerge] == 0 {
		t.Fatal("fault point never fired")
	}
	// The OR merged into the AND: both outputs now share one node.
	if r.Network.Outputs[0].Node != r.Network.Outputs[1].Node {
		t.Fatalf("bad-merge fault did not merge or into and:\n%s", r.Network.Dump())
	}
	// And without the registry the same network is untouched.
	clean := Run(n)
	if clean.Network.Outputs[0].Node == clean.Network.Outputs[1].Node {
		t.Fatal("clean run merged distinct gates")
	}
}
