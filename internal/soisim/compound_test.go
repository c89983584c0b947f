package soisim

import (
	"math/rand"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
)

// stackedStacks is (a*b*c + d*e*f + g*h*i) * (j*k*l + m*n*o + p*q*r): two
// wide parallel stacks in series, the structure the paper's solution 7
// (compound domino) exists for.
func stackedStacks() *logic.Network {
	n := logic.New("stacked")
	stack := func(base byte) int {
		var branches []int
		for b := 0; b < 3; b++ {
			x := n.AddInput(string(base + byte(3*b)))
			y := n.AddInput(string(base + byte(3*b+1)))
			z := n.AddInput(string(base + byte(3*b+2)))
			branches = append(branches, n.AddGate(logic.And, n.AddGate(logic.And, x, y), z))
		}
		return n.AddGate(logic.Or, n.AddGate(logic.Or, branches[0], branches[1]), branches[2])
	}
	p1 := stack('a')
	p2 := stack('j')
	n.AddOutput("f", n.AddGate(logic.And, p1, p2))
	return n
}

// pbeStrikeSequence charges the body of transistor d (top of the second
// branch, held off while e and f conduct and the first branch drives the
// inter-stack node high), then pulls the inter-stack node low through the
// second stack. In the single-gate realization without discharge devices,
// d's parasitic bipolar discharges the dynamic node through e and f.
func pbeStrikeSequence() []map[string]bool {
	all := "abcdefghijklmnopqr"
	vec := func(on string) map[string]bool {
		m := make(map[string]bool, len(all))
		for _, c := range all {
			m[string(c)] = false
		}
		for _, c := range on {
			m[string(c)] = true
		}
		return m
	}
	hold := vec("abcef") // branch1 on, e,f on, d off: d's S/D both driven high
	return []map[string]bool{hold, hold, hold, vec("efjkl")}
}

func buildStacked(t *testing.T, compound bool) (*mapper.Result, *netlist.Circuit) {
	t.Helper()
	res, err := mapper.DominoMap(stackedStacks(), mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if compound {
		cs := mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
		if cs.Converted != 1 || res.Stats.TDisch != 0 {
			t.Fatalf("compound preconditions: %+v, %s", cs, res.Stats)
		}
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
	c, err := netlist.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("netlist audit: %v\n%s", err, c.Dump())
	}
	if err := c.CrossCheck(res); err != nil {
		t.Fatal(err)
	}
	return res, c
}

// TestCompoundNetlistShape checks the device-level realization of the
// compound pair: two dynamic stages with their own precharge/keeper/foot
// and a 4-device static NOR output.
func TestCompoundNetlistShape(t *testing.T) {
	_, c := buildStacked(t, true)
	if len(c.Gates) != 1 {
		t.Fatalf("%d gates", len(c.Gates))
	}
	g := c.Gates[0]
	if g.OutKind != netlist.OutNOR || len(g.Dyns) != 2 {
		t.Fatalf("out=%v dyns=%v", g.OutKind, g.Dyns)
	}
	byType := map[netlist.DeviceType]int{}
	for _, id := range append(append([]int{}, g.Overhead...), g.Discharge...) {
		byType[c.Devices[id].Type]++
	}
	if byType[netlist.PPrecharge] != 2 || byType[netlist.PKeeper] != 2 {
		t.Errorf("per-stage overhead: %v", byType)
	}
	if byType[netlist.OutP] != 2 || byType[netlist.OutN] != 2 {
		t.Errorf("static NOR devices: %v", byType)
	}
	if byType[netlist.InvP] != 0 || byType[netlist.PDischarge] != 0 {
		t.Errorf("unexpected devices: %v", byType)
	}
}

// TestCompoundStrike is the paper's solution-7 claim, demonstrated on the
// simulator: the single-gate realization without its discharge devices is
// corrupted by the strike sequence; the protected single gate survives
// with 7 discharge devices; the compound pair survives with none.
func TestCompoundStrike(t *testing.T) {
	seq := pbeStrikeSequence()

	// 1. Unprotected single gate: must corrupt.
	res, c := buildStacked(t, false)
	if res.Stats.TDisch != 7 {
		t.Fatalf("single-gate discharges = %d, want 7", res.Stats.TDisch)
	}
	cfg := DefaultConfig()
	cfg.DisableDischarge = true
	sim := New(c, cfg)
	corrupted := false
	var lastOut bool
	for _, vec := range seq {
		out, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		lastOut = out["f"]
		for _, e := range events {
			corrupted = corrupted || e.Corrupted
		}
	}
	if !corrupted || lastOut != true {
		t.Fatalf("unprotected gate should corrupt (corrupted=%v, f=%v)", corrupted, lastOut)
	}

	// 2. Protected single gate: survives.
	_, c2 := buildStacked(t, false)
	sim2 := New(c2, DefaultConfig())
	for i, vec := range seq {
		out, events, err := sim2.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Fatalf("protected gate corrupted at cycle %d: %v", i, e)
			}
		}
		if i == len(seq)-1 && out["f"] != false {
			t.Fatalf("protected gate final f=%v, want false", out["f"])
		}
	}

	// 3. Compound pair with zero discharge devices: survives.
	_, c3 := buildStacked(t, true)
	sim3 := New(c3, DefaultConfig())
	for i, vec := range seq {
		out, events, err := sim3.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Fatalf("compound pair corrupted at cycle %d: %v", i, e)
			}
		}
		if i == len(seq)-1 && out["f"] != false {
			t.Fatalf("compound pair final f=%v, want false", out["f"])
		}
	}
}

// TestCompoundSimMatchesLogic: the compound circuit tracks the mapped
// function cycle by cycle under random stimuli.
func TestCompoundSimMatchesLogic(t *testing.T) {
	res, c := buildStacked(t, true)
	sim := New(c, DefaultConfig())
	for cyc, vec := range RandomVectors(c, rand.New(rand.NewSource(17)), 200) {
		got, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Fatalf("cycle %d: %v", cyc, e)
			}
		}
		want, err := res.Eval(vec)
		if err != nil {
			t.Fatal(err)
		}
		if got["f"] != want["f"] {
			t.Fatalf("cycle %d: f=%v want %v", cyc, got["f"], want["f"])
		}
	}
}

// TestCompoundHoldStress: the compound pair survives the same holding
// stress patterns used for the protected-never-corrupts property.
func TestCompoundHoldStress(t *testing.T) {
	res, c := buildStacked(t, true)
	sim := New(c, DefaultConfig())
	for cyc, vec := range holdingVectors(c, rand.New(rand.NewSource(23)), 400) {
		got, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Fatalf("cycle %d: %v", cyc, e)
			}
		}
		want, _ := res.Eval(vec)
		if got["f"] != want["f"] {
			t.Fatalf("cycle %d: f mismatch", cyc)
		}
	}
}
