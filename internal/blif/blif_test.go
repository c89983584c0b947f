package blif

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
)

const majBlif = `
# 3-input majority
.model maj3
.inputs a b c
.outputs f
.names a b c f
11- 1
-11 1
1-1 1
.end
`

func TestParseMajority(t *testing.T) {
	n, err := ParseString(majBlif)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "maj3" {
		t.Errorf("model name = %q", n.Name)
	}
	if len(n.Inputs) != 3 || len(n.Outputs) != 1 {
		t.Fatalf("io shape: %d in, %d out", len(n.Inputs), len(n.Outputs))
	}
	tt, err := n.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, rowv := range tt {
		ones := 0
		for j := 0; j < 3; j++ {
			if i&(1<<j) != 0 {
				ones++
			}
		}
		if rowv[0] != (ones >= 2) {
			t.Errorf("row %d: got %v", i, rowv[0])
		}
	}
}

func TestParseOffsetCover(t *testing.T) {
	// f defined by its off-set: f=0 iff a=1,b=1 -> f = NAND(a,b)
	src := `.model m
.inputs a b
.outputs f
.names a b f
11 0
.end`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a, b := i&1 != 0, i&2 != 0
		out, _ := n.Eval([]bool{a, b})
		if out[0] != !(a && b) {
			t.Errorf("f(%v,%v) = %v", a, b, out[0])
		}
	}
}

func TestParseConstants(t *testing.T) {
	src := `.model m
.inputs a
.outputs one zero empty
.names one
1
.names zero
0
.names empty
.names a unused
1 1
.end`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := n.Eval([]bool{true})
	if out[0] != true || out[1] != false || out[2] != false {
		t.Errorf("constants = %v", out)
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	src := ".model m\n.inputs a \\\nb\n.outputs f # trailing comment\n.names a b f\n11 1\n.end\n"
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Inputs) != 2 {
		t.Errorf("inputs = %d, want 2", len(n.Inputs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"latch":         ".model m\n.latch a b\n.end",
		"mixed cover":   ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end",
		"bad char":      ".model m\n.inputs a\n.outputs f\n.names a f\n2 1\n.end",
		"bad width":     ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end",
		"stray row":     ".model m\n.inputs a\n.outputs a\n1 1\n.end",
		"undefined":     ".model m\n.inputs a\n.outputs f\n.end",
		"double def":    ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end",
		"cycle":         ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end",
		"dup input":     ".model m\n.inputs a a\n.outputs a\n.end",
		"bad out value": ".model m\n.inputs a\n.outputs f\n.names a f\n1 x\n.end",
		"bad const":     ".model m\n.inputs a\n.outputs f\n.names f\n x\n.end",
		"names no args": ".model m\n.names\n.end",
		"malformed row": ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1 1\n.end",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	n := logic.New("rt")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b, c))
	n.AddOutput("g", n.AddGate(logic.Nand, a, b))
	n.AddOutput("h", n.AddGate(logic.Nor, b, c))
	n.AddOutput("i", n.AddGate(logic.Xnor, a, c))
	n.AddOutput("j", n.AddGate(logic.Buf, a))
	n.AddOutput("k", n.AddGate(logic.Not, b))
	n.AddOutput("one", n.AddConst(true))
	n.AddOutput("zero", n.AddConst(false))

	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, buf.String())
	}
	if len(back.Inputs) != len(n.Inputs) || len(back.Outputs) != len(n.Outputs) {
		t.Fatalf("round-trip shape mismatch")
	}
	t1, _ := n.TruthTable()
	t2, _ := back.TruthTable()
	for i := range t1 {
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("round-trip functional mismatch at row %d output %d", i, j)
			}
		}
	}
}

// Round-trip property over random networks.
func TestWriteRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := randomNetwork(rng, 5, 20)
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		t1, _ := n.TruthTable()
		t2, _ := back.TruthTable()
		for i := range t1 {
			for j := range t1[i] {
				if t1[i][j] != t2[i][j] {
					t.Fatalf("trial %d row %d out %d mismatch", trial, i, j)
				}
			}
		}
	}
}

func randomNetwork(rng *rand.Rand, nin, ngates int) *logic.Network {
	n := logic.New("rnd")
	var pool []int
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for i := 0; i < ngates; i++ {
		op := ops[rng.Intn(len(ops))]
		k := 1
		if op.MaxFanin() != 1 {
			k = 2 + rng.Intn(2)
		}
		fanin := make([]int, k)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(op, fanin...))
	}
	for i := 0; i < 3; i++ {
		n.AddOutput("o"+string(rune('0'+i)), pool[len(pool)-1-i])
	}
	return n
}

func TestParseScannerError(t *testing.T) {
	// A line longer than the scanner's max buffer should error, not hang.
	long := strings.Repeat("x", 2<<20)
	if _, err := ParseString(".model m\n.inputs " + long + "\n.end"); err == nil {
		t.Error("expected scanner error for oversized line")
	}
}

// TestAliasKeepsInputName pins that a buffer cover over a primary input
// (.names a y / 1 1) aliases the input without renaming it: the input
// list keeps its declared names and the output names the alias.
func TestAliasKeepsInputName(t *testing.T) {
	n, err := ParseString(".model m\n.inputs a b\n.outputs y b\n.names a y\n1 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := inputNames(n); strings.Join(got, " ") != "a b" {
		t.Fatalf("inputs = %v, want [a b]", got)
	}
	if o := n.Outputs[0]; o.Name != "y" || o.Node != n.Inputs[0] {
		t.Fatalf("output 0 = %+v, want y on input a (node %d)", o, n.Inputs[0])
	}
}

// TestRegistryRoundTripKeepsInterface writes every registry circuit and
// parses it back: the primary inputs and outputs keep their names and
// order, whatever buffers Write emits for outputs named apart from their
// drivers.
func TestRegistryRoundTripKeepsInterface(t *testing.T) {
	for _, name := range bench.Names() {
		n := bench.MustBuild(name)
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := inputNames(back), inputNames(n); !slices.Equal(got, want) {
			t.Errorf("%s: inputs %v, want %v", name, got, want)
		}
		for i, o := range n.Outputs {
			if back.Outputs[i].Name != o.Name {
				t.Errorf("%s: output %d named %q, want %q", name, i, back.Outputs[i].Name, o.Name)
			}
		}
	}
}

func inputNames(n *logic.Network) []string {
	names := make([]string, len(n.Inputs))
	for i, id := range n.Inputs {
		names[i] = n.Nodes[id].Name
	}
	return names
}
