package bench

import (
	"testing"

	"soidomino/internal/logic"
)

func TestRegistryCoversAllTables(t *testing.T) {
	for _, tab := range [][]string{TableI, TableII, TableIII, TableIV} {
		for _, name := range tab {
			if _, ok := Get(name); !ok {
				t.Errorf("table circuit %q not registered", name)
			}
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestAllBenchmarksBuildAndCheck(t *testing.T) {
	for _, name := range Names() {
		n := MustBuild(name)
		if err := n.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s := n.Stats()
		if s.Inputs < 2 || s.Outputs < 1 || s.Gates < 5 {
			t.Errorf("%s: degenerate circuit %+v", name, s)
		}
		if n.Name != name {
			t.Errorf("%s: network named %q", name, n.Name)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, name := range []string{"c880", "des", "k2"} {
		a := MustBuild(name).Dump()
		b := MustBuild(name).Dump()
		if a != b {
			t.Errorf("%s: non-deterministic build", name)
		}
	}
}

func TestMustBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown benchmark")
		}
	}()
	MustBuild("nonexistent")
}

func TestMux16Function(t *testing.T) {
	n := Mux16()
	in := make([]bool, 20)
	for sel := 0; sel < 16; sel++ {
		for d := 0; d < 16; d++ {
			for i := range in {
				in[i] = false
			}
			in[d] = true // one-hot data
			for s := 0; s < 4; s++ {
				in[16+s] = sel>>s&1 == 1
			}
			out, err := n.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (d == sel) {
				t.Fatalf("mux16(sel=%d, hot=%d) = %v", sel, d, out[0])
			}
		}
	}
}

func TestRippleAdderFunction(t *testing.T) {
	n := RippleAdder(3)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			for c := 0; c < 2; c++ {
				in := make([]bool, 7)
				for i := 0; i < 3; i++ {
					in[i] = a>>i&1 == 1
					in[3+i] = b>>i&1 == 1
				}
				in[6] = c == 1
				out, err := n.Eval(in)
				if err != nil {
					t.Fatal(err)
				}
				sum := a + b + c
				for i := 0; i < 4; i++ {
					if out[i] != (sum>>i&1 == 1) {
						t.Fatalf("add(%d,%d,%d) bit %d wrong", a, b, c, i)
					}
				}
			}
		}
	}
}

func TestSymmetricFunction(t *testing.T) {
	n := Symmetric(9, 3, 6)
	tt, err := n.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tt {
		ones := 0
		for j := 0; j < 9; j++ {
			if i>>j&1 == 1 {
				ones++
			}
		}
		want := ones >= 3 && ones <= 6
		if row[0] != want {
			t.Fatalf("9symml with %d ones: got %v, want %v", ones, row[0], want)
		}
	}
}

func TestIncrementerFunction(t *testing.T) {
	n := Incrementer(4) // small instance of the same generator
	for x := 0; x < 16; x++ {
		for en := 0; en < 2; en++ {
			in := make([]bool, 5)
			for i := 0; i < 4; i++ {
				in[i] = x>>i&1 == 1
			}
			in[4] = en == 1
			out, err := n.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			want := x + en
			for i := 0; i < 5; i++ {
				if out[i] != (want>>i&1 == 1) {
					t.Fatalf("inc(%d,en=%d) bit %d wrong", x, en, i)
				}
			}
		}
	}
}

func TestMultiplierFunction(t *testing.T) {
	n := Multiplier(4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			in := make([]bool, 8)
			for i := 0; i < 4; i++ {
				in[i] = a>>i&1 == 1
				in[4+i] = b>>i&1 == 1
			}
			out, err := n.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			p := a * b
			for i := 0; i < 8; i++ {
				if out[i] != (p>>i&1 == 1) {
					t.Fatalf("%d*%d bit %d wrong", a, b, i)
				}
			}
		}
	}
}

func TestALUFunction(t *testing.T) {
	n := ALU(4)
	eval := func(a, b, op, cin int) (int, bool, bool) {
		in := make([]bool, 11)
		for i := 0; i < 4; i++ {
			in[i] = a>>i&1 == 1
			in[4+i] = b>>i&1 == 1
		}
		in[8] = op&1 == 1
		in[9] = op>>1&1 == 1
		in[10] = cin == 1
		out, err := n.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		y := 0
		for i := 0; i < 4; i++ {
			if out[i] {
				y |= 1 << i
			}
		}
		return y, out[4], out[5] // y, cout, zero
	}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			// Encoding: 00 add, 01 subtract, 10 and, 11 or.
			if y, _, _ := eval(a, b, 0, 0); y != (a+b)&15 {
				t.Fatalf("add %d+%d = %d", a, b, y)
			}
			if y, _, _ := eval(a, b, 1, 0); y != (a-b)&15 {
				t.Fatalf("sub %d-%d = %d", a, b, y)
			}
			if y, _, _ := eval(a, b, 2, 0); y != a&b {
				t.Fatalf("and %d&%d = %d", a, b, y)
			}
			if y, _, _ := eval(a, b, 3, 0); y != a|b {
				t.Fatalf("or %d|%d = %d", a, b, y)
			}
			// Add with carry-in.
			if y, _, _ := eval(a, b, 0, 1); y != (a+b+1)&15 {
				t.Fatalf("adc %d+%d+1 = %d", a, b, y)
			}
		}
	}
	if _, _, zero := eval(0, 0, 2, 0); !zero {
		t.Error("zero flag not set for 0&0")
	}
	if _, _, zero := eval(3, 0, 3, 0); zero {
		t.Error("zero flag set for 3|0")
	}
}

func TestRotatorFunction(t *testing.T) {
	n := Rotator(8)
	for x := 0; x < 256; x += 37 {
		for sh := 0; sh < 8; sh++ {
			in := make([]bool, 11)
			for i := 0; i < 8; i++ {
				in[i] = x>>i&1 == 1
			}
			for s := 0; s < 3; s++ {
				in[8+s] = sh>>s&1 == 1
			}
			out, err := n.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				want := x>>((i+sh)%8)&1 == 1
				if out[i] != want {
					t.Fatalf("rot(%02x, %d) bit %d wrong", x, sh, i)
				}
			}
		}
	}
}

func TestPriorityInterruptFunction(t *testing.T) {
	n := PriorityInterrupt()
	eval := func(en uint, req uint32) (idx int, valid bool, conflict bool) {
		in := make([]bool, 36)
		for g := 0; g < 4; g++ {
			in[g] = en>>g&1 == 1
		}
		for i := 0; i < 32; i++ {
			in[4+i] = req>>i&1 == 1
		}
		out, err := n.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 5; b++ {
			if out[b] {
				idx |= 1 << b
			}
		}
		return idx, out[5], out[6]
	}
	// All enabled, single request.
	for i := 0; i < 32; i++ {
		idx, valid, _ := eval(0xF, 1<<i)
		if !valid || idx != i {
			t.Fatalf("single request %d: idx=%d valid=%v", i, idx, valid)
		}
	}
	// Priority: lowest index wins.
	if idx, _, _ := eval(0xF, 1<<5|1<<20); idx != 5 {
		t.Errorf("priority pick = %d, want 5", idx)
	}
	// Disabled group masks its requests.
	if _, valid, _ := eval(0xE, 1<<3); valid {
		t.Error("masked request should not be valid")
	}
	// Conflict across groups.
	if _, _, conflict := eval(0xF, 1<<3|1<<20); !conflict {
		t.Error("cross-group conflict not flagged")
	}
	if _, _, conflict := eval(0xF, 1<<3|1<<5); conflict {
		t.Error("same-group requests flagged as conflict")
	}
}

func TestXorEccParity(t *testing.T) {
	n := XorEcc("ecc", 16, 8, 5)
	// Flipping a single input flips only the outputs it feeds, and the
	// all-zero input yields all-zero parity.
	zero := make([]bool, 16)
	out0, err := n.Eval(zero)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out0 {
		if v {
			t.Fatalf("zero input, parity %d high", i)
		}
	}
	for j := 0; j < 16; j++ {
		in := make([]bool, 16)
		in[j] = true
		out, _ := n.Eval(in)
		diff := 0
		for i := range out {
			if out[i] != out0[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("input %d feeds no output", j)
		}
	}
}

func TestDesRoundStructure(t *testing.T) {
	n := DesRound(1)
	s := n.Stats()
	if s.Inputs != 64+48 || s.Outputs != 64 {
		t.Fatalf("des1 profile: %d in / %d out", s.Inputs, s.Outputs)
	}
	// Feistel: output left half equals the input right half.
	in := make([]bool, 112)
	for i := range in {
		in[i] = i%3 == 0
	}
	out, err := n.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if out[i] != in[32+i] {
			t.Fatalf("feistel swap broken at bit %d", i)
		}
	}
	// Key dependence: flipping a key bit changes some output.
	in[64+10] = !in[64+10]
	out2, _ := n.Eval(in)
	changed := false
	for i := 32; i < 64; i++ {
		if out2[i] != out[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("key bit has no effect")
	}
}

func TestSyntheticProfile(t *testing.T) {
	p := SynthParams{Name: "s", Seed: 7, Inputs: 20, Outputs: 10, Gates: 200}
	n := Synthetic(p)
	s := n.Stats()
	if s.Inputs != 20 || s.Outputs != 10 {
		t.Fatalf("profile %+v", s)
	}
	if s.Depth < 4 {
		t.Errorf("synthetic depth %d too shallow for realistic logic", s.Depth)
	}
	// Every input must feed something.
	fanout := fanouts(n)
	for _, id := range n.Inputs {
		if fanout[id] == 0 {
			t.Errorf("input %d unused", id)
		}
	}
	// Outputs are distinct.
	seen := map[int]bool{}
	for _, o := range n.Outputs {
		if seen[o.Node] {
			t.Errorf("duplicate output node %d", o.Node)
		}
		seen[o.Node] = true
	}
}

// fanouts returns how many gate fanins name each node of n.
func fanouts(n *logic.Network) []int {
	counts := make([]int, len(n.Nodes))
	for _, node := range n.Nodes {
		for _, f := range node.Fanin {
			counts[f]++
		}
	}
	return counts
}

func TestSyntheticBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Synthetic(SynthParams{Name: "bad", Inputs: 1, Outputs: 1, Gates: 1})
}

func TestLUTBuilder(t *testing.T) {
	b := newBuilder("lut")
	vars := []int{b.in("a"), b.in("b"), b.in("c")}
	// tt for f = a XOR b XOR c
	tt := make([]bool, 8)
	for i := range tt {
		ones := 0
		for j := 0; j < 3; j++ {
			if i>>j&1 == 1 {
				ones++
			}
		}
		tt[i] = ones%2 == 1
	}
	memo := map[string]int{}
	b.out("f", b.lut(vars, tt, memo))
	rows, err := b.n.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row[0] != tt[i] {
			t.Fatalf("lut row %d wrong", i)
		}
	}
	// Constant tables fold.
	b2 := newBuilder("lut2")
	v2 := []int{b2.in("a"), b2.in("b")}
	id := b2.lut(v2, []bool{true, true, true, true}, map[string]int{})
	b2.out("one", id)
	if s := b2.n.Stats(); s.Gates != 0 {
		t.Errorf("constant LUT produced %d gates", s.Gates)
	}
}

var _ = logic.New // keep the import when tests are trimmed
