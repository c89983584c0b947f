package verify

import (
	"strings"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/sp"
	"soidomino/internal/unate"
)

func mapNetwork(t *testing.T, n *logic.Network) *mapper.Result {
	t.Helper()
	d, err := unate.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Convert()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.SOIDominoMap(u.Network, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallNetwork() *logic.Network {
	n := logic.New("small")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", n.AddGate(logic.Xor, n.AddGate(logic.And, a, b), c))
	return n
}

func wideNetwork() *logic.Network {
	n := logic.New("wide")
	var ins []int
	for i := 0; i < 20; i++ {
		ins = append(ins, n.AddInput(string(rune('a'+i))))
	}
	n.AddOutput("all", n.AddGate(logic.And, ins...))
	n.AddOutput("any", n.AddGate(logic.Or, ins...))
	n.AddOutput("par", n.AddGate(logic.Xor, ins[:8]...))
	return n
}

func TestEquivalentExhaustive(t *testing.T) {
	n := smallNetwork()
	res := mapNetwork(t, n)
	rep, err := Equivalent(n, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.Exhaustive || rep.Vectors != 8 {
		t.Errorf("report = %+v", rep)
	}
}

func TestEquivalentRandomWide(t *testing.T) {
	n := wideNetwork()
	res := mapNetwork(t, n)
	rep, err := Equivalent(n, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("mismatches: %v", rep.Mismatches)
	}
	if rep.Exhaustive {
		t.Error("20-input check should not be exhaustive")
	}
	// random + corners (all0, all1, 20 one-hot)
	if rep.Vectors != DefaultOptions().RandomVectors+42 {
		t.Errorf("vectors = %d", rep.Vectors)
	}
}

func TestDetectsBrokenCircuit(t *testing.T) {
	n := smallNetwork()
	res := mapNetwork(t, n)
	// Sabotage: negate a leaf of the first gate.
	for i, n := range res.Gates[0].Nodes {
		if n.Kind == sp.Leaf && n.FromPI() {
			res.Gates[0].Nodes[i].Negated = !n.Negated
			break
		}
	}
	rep, err := Equivalent(n, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("sabotaged circuit reported equivalent")
	}
	if err := MustBeEquivalent(n, res, DefaultOptions()); err == nil {
		t.Error("MustBeEquivalent should fail")
	} else if !strings.Contains(err.Error(), "NOT equivalent") {
		t.Errorf("error = %v", err)
	}
	if rep.Mismatches[0].String() == "" {
		t.Error("Mismatch.String empty")
	}
}

func TestDetectsBrokenWideCircuitViaCorners(t *testing.T) {
	// An AND missing one input is nearly invisible to random vectors over
	// 20 inputs (only the all-ones row differs); the corner patterns must
	// catch it.
	n := wideNetwork()
	res := mapNetwork(t, n)
	broken := wideNetwork()
	// Rebuild "all" as AND of only 19 inputs.
	var ins []int
	for _, id := range broken.Inputs {
		ins = append(ins, id)
	}
	brokenAll := broken.AddGate(logic.And, ins[:19]...)
	broken.Outputs[0].Node = brokenAll
	rep, err := Equivalent(broken, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("corner patterns failed to catch the missing AND input")
	}
}

func TestMismatchCap(t *testing.T) {
	n := smallNetwork()
	res := mapNetwork(t, n)
	for i, n := range res.Gates[0].Nodes {
		if n.Kind == sp.Leaf {
			res.Gates[0].Nodes[i].Negated = !n.Negated
		}
	}
	opt := DefaultOptions()
	opt.MaxMismatches = 2
	rep, err := Equivalent(n, res, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 2 {
		t.Errorf("mismatch cap not honored: %d", len(rep.Mismatches))
	}
}

func TestZeroOptionsAdoptDefaults(t *testing.T) {
	n := smallNetwork()
	res := mapNetwork(t, n)
	rep, err := Equivalent(n, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Vectors == 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestMustBeEquivalentOK(t *testing.T) {
	n := smallNetwork()
	res := mapNetwork(t, n)
	if err := MustBeEquivalent(n, res, DefaultOptions()); err != nil {
		t.Error(err)
	}
}
