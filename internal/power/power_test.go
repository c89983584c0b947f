package power

import (
	"math"
	"strings"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/unate"
)

func mapNet(t *testing.T, n *logic.Network,
	algo func(*logic.Network, mapper.Options) (*mapper.Result, error), opt mapper.Options) *mapper.Result {
	t.Helper()
	d, err := unate.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Convert()
	if err != nil {
		t.Fatal(err)
	}
	res, err := algo(u.Network, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestActivityMatchesFunction(t *testing.T) {
	// A single AND gate fires with probability 1/4; a single OR with 3/4.
	n := logic.New("act")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.And, a, b))
	n.AddOutput("g", n.AddGate(logic.Or, a, b))
	res := mapNet(t, n, mapper.DominoMap, mapper.DefaultOptions())
	p := DefaultParams()
	p.Vectors = 4096
	est, err := Analyze(res, p)
	if err != nil {
		t.Fatal(err)
	}
	andGate := res.OutputGate["f"]
	orGate := res.OutputGate["g"]
	if math.Abs(est.Activity[andGate]-0.25) > 0.05 {
		t.Errorf("AND activity = %v, want ~0.25", est.Activity[andGate])
	}
	if math.Abs(est.Activity[orGate]-0.75) > 0.05 {
		t.Errorf("OR activity = %v, want ~0.75", est.Activity[orGate])
	}
	if est.Total() <= 0 || est.Clock <= 0 {
		t.Errorf("estimate = %s", est)
	}
	if !strings.Contains(est.String(), "per cycle") {
		t.Errorf("String = %q", est.String())
	}
}

func TestClockPowerTracksDischarges(t *testing.T) {
	// The fig. 2 gate: baseline carries a discharge device, SOI does not;
	// the clock energy difference must be exactly one gate capacitance.
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))

	opt := mapper.DefaultOptions()
	base := mapNet(t, n, mapper.DominoMap, opt)
	soi := mapNet(t, n, mapper.SOIDominoMap, opt)
	p := DefaultParams()
	eb, err := Analyze(base, p)
	if err != nil {
		t.Fatal(err)
	}
	es, err := Analyze(soi, p)
	if err != nil {
		t.Fatal(err)
	}
	if diff := eb.Clock - es.Clock; math.Abs(diff-p.CapGate) > 1e-9 {
		t.Errorf("clock energy difference = %v, want exactly one discharge device (%v)", diff, p.CapGate)
	}
	// Same logic, same activity: evaluation energy matches.
	if math.Abs(eb.Evaluation-es.Evaluation) > 1e-9 {
		t.Errorf("evaluation energy differs: %v vs %v", eb.Evaluation, es.Evaluation)
	}
}

func TestDeterministicEstimate(t *testing.T) {
	n := logic.New("det")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", n.AddGate(logic.Xor, n.AddGate(logic.And, a, b), c))
	res := mapNet(t, n, mapper.SOIDominoMap, mapper.DefaultOptions())
	e1, err := Analyze(res, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Analyze(res, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if e1.Total() != e2.Total() {
		t.Error("estimate not deterministic")
	}
}

func TestZeroParamsAdoptDefaults(t *testing.T) {
	n := logic.New("z")
	a := n.AddInput("a")
	n.AddOutput("f", a)
	res := mapNet(t, n, mapper.DominoMap, mapper.DefaultOptions())
	est, err := Analyze(res, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Total() <= 0 {
		t.Errorf("estimate = %s", est)
	}
}
