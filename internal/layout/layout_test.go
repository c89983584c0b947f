package layout

import (
	"math/rand"
	"strings"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/unate"
)

func TestChainSeries(t *testing.T) {
	// A pure series chain a-b-c is a single trail: no breaks.
	edges := [][2]string{{"dyn", "n0"}, {"n0", "n1"}, {"n1", "gnd"}}
	r := chain(edges)
	if r.Devices != 3 || r.Breaks != 0 {
		t.Errorf("series chain = %+v", r)
	}
}

func TestChainParallel(t *testing.T) {
	// Three devices in parallel between dyn and gnd: degrees 3 and 3, so
	// 2 odd vertices -> 1 trail -> 0 breaks... wait: deg(dyn)=3,
	// deg(gnd)=3 -> odd=2 -> max(1,1)=1 trail: chainable (dyn-gnd-dyn-gnd).
	edges := [][2]string{{"dyn", "gnd"}, {"dyn", "gnd"}, {"dyn", "gnd"}}
	if r := chain(edges); r.Breaks != 0 {
		t.Errorf("3-parallel = %+v, want 0 breaks", r)
	}
	// Four in parallel: all even degrees -> Euler circuit -> 0 breaks.
	edges = append(edges, [2]string{"dyn", "gnd"})
	if r := chain(edges); r.Breaks != 0 {
		t.Errorf("4-parallel = %+v, want 0 breaks", r)
	}
}

func TestChainStar(t *testing.T) {
	// Four devices all touching node x (a star): odd = 4 -> 2 trails -> 1
	// break.
	edges := [][2]string{{"x", "a"}, {"x", "b"}, {"x", "c"}, {"x", "d"}}
	if r := chain(edges); r.Breaks != 1 {
		t.Errorf("star = %+v, want 1 break", r)
	}
}

func TestChainDisconnected(t *testing.T) {
	// Two separate pairs: two trails -> one break between them.
	edges := [][2]string{{"a", "b"}, {"c", "d"}}
	if r := chain(edges); r.Breaks != 1 {
		t.Errorf("disconnected = %+v, want 1 break", r)
	}
}

func TestChainEmpty(t *testing.T) {
	if r := chain(nil); r.Devices != 0 || r.Breaks != 0 {
		t.Errorf("empty = %+v", r)
	}
}

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
	opt := mapper.DefaultOptions()
	opt.BaselineStackOrder = mapper.OrderHashed
	res, err := algo(u.Network, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

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

func TestDischargeWidensPRow(t *testing.T) {
	// The fig. 2 gate under the baseline carries one p-discharge device;
	// under the SOI mapping it does not. The p-row must be wider in the
	// baseline by at least a device pitch.
	base, err := Analyze(mapNet(t, fig2Network(), mapper.DominoMap), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	soi, err := Analyze(mapNet(t, fig2Network(), mapper.SOIDominoMap), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bp := base.Gates[0].PRow
	sp := soi.Gates[0].PRow
	if bp.Devices != sp.Devices+1 {
		t.Errorf("p-row devices: base %d, soi %d", bp.Devices, sp.Devices)
	}
	if bp.Width(DefaultParams()) <= sp.Width(DefaultParams()) {
		t.Errorf("baseline p-row %.1f should be wider than SOI's %.1f",
			bp.Width(DefaultParams()), sp.Width(DefaultParams()))
	}
	// For this gate the n-row dominates the cell width either way, so the
	// total area only has to be no better for the baseline.
	if base.Area < soi.Area {
		t.Errorf("baseline area %.1f below SOI %.1f", base.Area, soi.Area)
	}
	if !strings.Contains(base.String(), "pitch units") {
		t.Errorf("String = %q", base.String())
	}
}

func TestAreaAcrossSuite(t *testing.T) {
	// On a random circuit, SOI's diffusion-aware area never exceeds the
	// baseline's by more than its transistor surplus would explain, and
	// every estimate is positive and finite.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := randomCircuit(rng)
		base, err := Analyze(mapNet(t, n, mapper.DominoMap), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		soi, err := Analyze(mapNet(t, n, mapper.SOIDominoMap), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if base.Area <= 0 || soi.Area <= 0 {
			t.Fatal("non-positive area")
		}
		if soi.Area > base.Area*1.2 {
			t.Errorf("trial %d: SOI area %.1f far above baseline %.1f", trial, soi.Area, base.Area)
		}
	}
}

func randomCircuit(rng *rand.Rand) *logic.Network {
	n := logic.New("rnd")
	var pool []int
	for i := 0; i < 6; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor}
	for i := 0; i < 20; i++ {
		op := ops[rng.Intn(len(ops))]
		fan := []int{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		pool = append(pool, n.AddGate(op, fan...))
	}
	n.AddOutput("f", pool[len(pool)-1])
	n.AddOutput("g", pool[len(pool)-3])
	return n
}
