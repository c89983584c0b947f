package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/unate"
)

func fig2Network() *logic.Network {
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))
	return n
}

func buildFor(t *testing.T, n *logic.Network,
	algo func(*logic.Network, mapper.Options) (*mapper.Result, error)) (*mapper.Result, *Circuit) {
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
	c, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("audit: %v\n%s", err, c.Dump())
	}
	if err := c.CrossCheck(res); err != nil {
		t.Fatalf("cross-check: %v", err)
	}
	return res, c
}

// TestFigure2Realization pins the device-level structure of the paper's
// example gate (A+B+C)*D under the baseline mapper: 4 pulldown nMOS, one
// p-discharge on the stack's bottom node, precharge, keeper, inverter
// pair and an n-clock foot — 9 logic transistors + 1 discharge.
func TestFigure2Realization(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.DominoMap)
	if len(c.Gates) != 1 {
		t.Fatalf("%d gates, want 1", len(c.Gates))
	}
	if got := c.Stats.ByType[NPulldown]; got != 4 {
		t.Errorf("pulldown devices = %d, want 4", got)
	}
	if got := c.Stats.TDisch(); got != 1 {
		t.Errorf("discharge devices = %d, want 1", got)
	}
	if got := c.Stats.TLogic(); got != 9 {
		t.Errorf("TLogic = %d, want 9", got)
	}
	if got := c.Stats.TClock(); got != 3 { // precharge + foot + discharge
		t.Errorf("TClock = %d, want 3", got)
	}
	// The discharge device must drain the single internal junction.
	g := c.Gates[0]
	if len(g.Internal) != 1 || len(g.Discharge) != 1 {
		t.Fatalf("internal=%v discharge=%v", g.Internal, g.Discharge)
	}
	dd := c.Devices[g.Discharge[0]]
	if dd.Drain != g.Internal[0] {
		t.Errorf("discharge drains %q, want %q", dd.Drain, g.Internal[0])
	}
}

func TestFigure2SOIHasNoDischarge(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.SOIDominoMap)
	if got := c.Stats.TDisch(); got != 0 {
		t.Errorf("SOI discharge devices = %d, want 0\n%s", got, c.Dump())
	}
	if got := c.Stats.TTotal(); got != 9 {
		t.Errorf("SOI TTotal = %d, want 9", got)
	}
}

func TestInvertedInputRails(t *testing.T) {
	n := logic.New("xor")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	_, c := buildFor(t, n, mapper.SOIDominoMap)
	if len(c.InvertedInputs) != 2 {
		t.Errorf("inverted inputs = %v, want both a and b", c.InvertedInputs)
	}
	neg := 0
	for _, d := range c.Devices {
		if d.Type == NPulldown && d.Negated {
			neg++
		}
	}
	if neg != 2 {
		t.Errorf("negated pulldown devices = %d, want 2", neg)
	}
}

func TestFootlessInternalGates(t *testing.T) {
	// A two-level circuit: the second-level gate is fed only by the first
	// gate, so it is footless and its pulldown bottom is GND directly.
	n := logic.New("two")
	var ins []int
	for i := 0; i < 12; i++ {
		ins = append(ins, n.AddInput(string(rune('a'+i))))
	}
	// g1 and g2 are multi-fanout, so they must become gate roots and the
	// top gate's pulldown is entirely gate-driven.
	g1 := n.AddGate(logic.And, ins[:6]...)
	g2 := n.AddGate(logic.And, ins[6:]...)
	n.AddOutput("f", n.AddGate(logic.And, g1, g2))
	n.AddOutput("g1", g1)
	n.AddOutput("g2", g2)
	res, c := buildFor(t, n, mapper.SOIDominoMap)
	footless := 0
	for _, g := range c.Gates {
		if !g.Footed {
			footless++
			if g.Foot != GND {
				t.Errorf("footless gate %d has foot node %q", g.ID, g.Foot)
			}
		}
	}
	if footless == 0 {
		t.Logf("mapping: %s", res.Dump())
		t.Error("expected at least one footless internal gate")
	}
}

func TestDeviceString(t *testing.T) {
	d := Device{Type: NPulldown, Signal: "a", Negated: true, Drain: "x", Source: "y"}
	if s := d.String(); !strings.Contains(s, "!a") {
		t.Errorf("Device.String = %q", s)
	}
	dc := Device{Type: PPrecharge, Drain: "dyn", Source: VDD}
	if s := dc.String(); !strings.Contains(s, "CLK") {
		t.Errorf("clocked Device.String = %q", s)
	}
	if DeviceType(99).String() == "" {
		t.Error("unknown device type string empty")
	}
}

func TestClockedClassification(t *testing.T) {
	clocked := []DeviceType{NFoot, PPrecharge, PDischarge}
	unclocked := []DeviceType{NPulldown, PKeeper, InvP, InvN}
	for _, ty := range clocked {
		if !ty.Clocked() {
			t.Errorf("%s should be clocked", ty)
		}
	}
	for _, ty := range unclocked {
		if ty.Clocked() {
			t.Errorf("%s should not be clocked", ty)
		}
	}
}

func randomCircuit(rng *rand.Rand) *logic.Network {
	n := logic.New("rnd")
	nin := 4 + rng.Intn(4)
	var pool []int
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	for i, ngates := 0, 5+rng.Intn(20); i < ngates; i++ {
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
	n.AddOutput("f", pool[len(pool)-1])
	n.AddOutput("g", pool[len(pool)-2])
	return n
}

// Property: realization of any mapped circuit passes the audit and agrees
// with the mapper's statistics, for all three algorithms.
func TestRealizationQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(31))}
	algos := []func(*logic.Network, mapper.Options) (*mapper.Result, error){
		mapper.DominoMap, mapper.RSMap, mapper.SOIDominoMap,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomCircuit(rng)
		d, err := unate.Decompose(n)
		if err != nil {
			return false
		}
		u, err := d.Convert()
		if err != nil {
			return false
		}
		for _, algo := range algos {
			res, err := algo(u.Network, mapper.DefaultOptions())
			if err != nil {
				return false
			}
			c, err := Build(res)
			if err != nil {
				return false
			}
			if c.Audit() != nil || c.CrossCheck(res) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConstOutputsCarried(t *testing.T) {
	n := logic.New("c")
	a := n.AddInput("a")
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))
	n.AddOutput("fa", a)
	_, c := buildFor(t, n, mapper.DominoMap)
	if v, ok := c.ConstOutputs["one"]; !ok || !v {
		t.Errorf("ConstOutputs = %v", c.ConstOutputs)
	}
}

func TestDumpContainsDevices(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.DominoMap)
	dump := c.Dump()
	for _, want := range []string{"pdisch", "pprech", "pkeep", "invp", "invn", "nfoot"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
}
