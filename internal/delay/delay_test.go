package delay

import (
	"math"
	"math/rand"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/unate"
)

func mapNet(t *testing.T, n *logic.Network,
	algo func(*logic.Network, mapper.Options) (*mapper.Result, error)) *mapper.Result {
	t.Helper()
	d, err := unate.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Convert()
	if err != nil {
		t.Fatal(err)
	}
	res, err := algo(u.Network, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBufferGateDelay(t *testing.T) {
	n := logic.New("buf")
	a := n.AddInput("a")
	n.AddOutput("f", a)
	res := mapNet(t, n, mapper.DominoMap)
	p := DefaultParams()
	an, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.TauStack*1 + p.TauGate + p.TauLoad*1
	if !approx(an.Critical, want) {
		t.Errorf("critical = %v, want %v", an.Critical, want)
	}
	if len(an.CriticalPath) != 1 {
		t.Errorf("path = %v", an.CriticalPath)
	}
}

func TestSeriesStackDelay(t *testing.T) {
	// f = a*b as one gate: the top input (a) discharges through two
	// devices; b pays the position tax of the device above it.
	n := logic.New("and2")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.And, a, b))
	res := mapNet(t, n, mapper.DominoMap) // source order: a on top
	if got := res.Expr(res.Gates[0].Nodes); got != "a*b" {
		t.Fatalf("tree = %q", got)
	}
	p := Params{TauStack: 1, TauPos: 0.25, TauGate: 0, TauLoad: 0}
	an, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	// a: below=1 -> 2.0; b: below=0, above=1 -> 1.25. Worst = 2.0.
	if !approx(an.Critical, 2.0) {
		t.Errorf("critical = %v, want 2.0", an.Critical)
	}
}

func TestNegatedInputAddsInverter(t *testing.T) {
	n := logic.New("nor")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Nor, a, b)) // unate form: !a * !b
	res := mapNet(t, n, mapper.DominoMap)
	p := Params{TauStack: 1, TauPos: 0, TauGate: 0, TauLoad: 0, TauInv: 3}
	an, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	// Both leaves complemented: worst = TauInv + 2 stack taus.
	if !approx(an.Critical, 5.0) {
		t.Errorf("critical = %v, want 5.0", an.Critical)
	}
}

func TestCascadeAccumulates(t *testing.T) {
	// Force a 2-level cascade via multi-fanout.
	n := logic.New("casc")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("g", g)
	n.AddOutput("f", n.AddGate(logic.And, g, c))
	res := mapNet(t, n, mapper.DominoMap)
	an, err := Analyze(res, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gidG := res.OutputGate["g"]
	gidF := res.OutputGate["f"]
	if an.ArrivalOut[gidF] <= an.ArrivalOut[gidG] {
		t.Errorf("cascade did not accumulate: f=%v g=%v",
			an.ArrivalOut[gidF], an.ArrivalOut[gidG])
	}
	if an.CriticalOutput != "f" {
		t.Errorf("critical output = %q", an.CriticalOutput)
	}
	if len(an.CriticalPath) != 2 || an.CriticalPath[1] != gidF {
		t.Errorf("critical path = %v", an.CriticalPath)
	}
}

func TestCompoundPaysExtraStage(t *testing.T) {
	n := logic.New("stk")
	// Two stacked 3-wide parallel groups (profitable compound target).
	stack := func(base byte) int {
		var br []int
		for i := 0; i < 3; i++ {
			x := n.AddInput(string(base + byte(3*i)))
			y := n.AddInput(string(base + byte(3*i+1)))
			z := n.AddInput(string(base + byte(3*i+2)))
			br = append(br, n.AddGate(logic.And, n.AddGate(logic.And, x, y), z))
		}
		return n.AddGate(logic.Or, n.AddGate(logic.Or, br[0], br[1]), br[2])
	}
	n.AddOutput("f", n.AddGate(logic.And, stack('a'), stack('j')))
	res, err := mapper.DominoMap(n, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	before, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
	after, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting the series stack halves the discharge path (H 6 -> 3) but
	// pays the extra output stage; with the default constants the split
	// comes out faster.
	if after.Critical >= before.Critical {
		t.Errorf("compound split should shorten the stack: %.2f -> %.2f",
			before.Critical, after.Critical)
	}
}

// TestReorderingDelayIsSecondOrder quantifies the paper's §III-C claim on
// random circuits: the SOI mapper's PBE-driven stack reordering moves the
// estimated critical delay only marginally relative to the baseline.
func TestReorderingDelayIsSecondOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := DefaultParams()
	for trial := 0; trial < 10; trial++ {
		n := randomCircuit(rng)
		base := mapNet(t, n, mapper.DominoMap)
		soi := mapNet(t, n, mapper.SOIDominoMap)
		ab, err := Analyze(base, p)
		if err != nil {
			t.Fatal(err)
		}
		as, err := Analyze(soi, p)
		if err != nil {
			t.Fatal(err)
		}
		if ab.Critical <= 0 {
			continue
		}
		ratio := as.Critical / ab.Critical
		if ratio > 1.35 || ratio < 0.6 {
			t.Errorf("trial %d: SOI delay ratio %.2f outside the second-order band\nbase: %s\nsoi:  %s",
				trial, ratio, ab, as)
		}
	}
}

func TestArrivalMonotoneAlongPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := randomCircuit(rng)
	res := mapNet(t, n, mapper.SOIDominoMap)
	an, err := Analyze(res, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(an.CriticalPath); i++ {
		if an.ArrivalOut[an.CriticalPath[i]] <= an.ArrivalOut[an.CriticalPath[i-1]] {
			t.Fatalf("arrival not increasing along critical path %v", an.CriticalPath)
		}
	}
	if an.String() == "" {
		t.Error("String empty")
	}
}

func TestNoOutputs(t *testing.T) {
	n := logic.New("empty")
	n.AddInput("a")
	res := mapNet(t, n, mapper.DominoMap)
	an, err := Analyze(res, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if an.Critical != 0 || len(an.CriticalPath) != 0 {
		t.Errorf("empty analysis = %+v", an)
	}
}

func randomCircuit(rng *rand.Rand) *logic.Network {
	n := logic.New("rnd")
	nin := 5 + rng.Intn(4)
	var pool []int
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	for i, ngates := 0, 15+rng.Intn(25); i < ngates; i++ {
		op := ops[rng.Intn(len(ops))]
		k := 1
		if op.MaxFanin() != 1 {
			k = 2 + rng.Intn(2)
		}
		fan := make([]int, k)
		for j := range fan {
			fan[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(op, fan...))
	}
	n.AddOutput("f", pool[len(pool)-1])
	n.AddOutput("g", pool[len(pool)-2])
	return n
}
