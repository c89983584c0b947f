package soisim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
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

func buildCircuit(t *testing.T, n *logic.Network,
	algo func(*logic.Network, mapper.Options) (*mapper.Result, error)) (*mapper.Result, *netlist.Circuit) {
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
	c, err := netlist.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

// fig2Sequence is the paper's §III-B failure scenario: A held high with
// B=C=D low long enough to charge the bodies of B and C, then A drops and
// D rises in the same cycle.
func fig2Sequence() []map[string]bool {
	v := func(a, b, c, d bool) map[string]bool {
		return map[string]bool{"A": a, "B": b, "C": c, "D": d}
	}
	return []map[string]bool{
		v(true, false, false, false),
		v(true, false, false, false),
		v(true, false, false, false),
		v(false, false, false, true), // the PBE strike
	}
}

// TestFigure2UnprotectedFails reproduces the paper's central failure: the
// bulk-style gate with its discharge device disconnected evaluates f=1
// even though A=B=C=0.
func TestFigure2UnprotectedFails(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.DominoMap)
	cfg := DefaultConfig()
	cfg.DisableDischarge = true
	sim := New(c, cfg)
	seq := fig2Sequence()
	var last map[string]bool
	for i, vec := range seq {
		out, _, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		last = out
		if i < len(seq)-1 && out["f"] != false {
			t.Errorf("cycle %d: f=%v, want false", i, out["f"])
		}
	}
	if last["f"] != true {
		t.Errorf("final cycle: f=%v; expected the PBE to corrupt the output to true", last["f"])
	}
	events := sim.Events()
	if len(events) == 0 {
		t.Fatal("no PBE events recorded")
	}
	corrupted := false
	for _, e := range events {
		if e.Corrupted {
			corrupted = true
			if len(e.Devices) < 2 {
				t.Errorf("expected bipolar current through both B and C, got devices %v", e.Devices)
			}
		}
	}
	if !corrupted {
		t.Error("no corrupting event recorded")
	}
}

// TestFigure2ProtectedSafe: with the p-discharge device active the same
// sequence is harmless (paper fig. 2(c)).
func TestFigure2ProtectedSafe(t *testing.T) {
	res, c := buildCircuit(t, fig2Network(), mapper.DominoMap)
	if res.Stats.TDisch != 1 {
		t.Fatalf("expected 1 discharge device, got %d", res.Stats.TDisch)
	}
	sim := New(c, DefaultConfig())
	for i, vec := range fig2Sequence() {
		out, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) > 0 {
			t.Errorf("cycle %d: unexpected events %v", i, events)
		}
		want, err := res.Eval(vec)
		if err != nil {
			t.Fatal(err)
		}
		if out["f"] != want["f"] {
			t.Errorf("cycle %d: f=%v, want %v", i, out["f"], want["f"])
		}
	}
}

// TestFigure2SOISafeWithoutDischarges: the SOI mapping grounds the
// parallel stack, so it survives the same sequence with zero discharge
// devices.
func TestFigure2SOISafeWithoutDischarges(t *testing.T) {
	res, c := buildCircuit(t, fig2Network(), mapper.SOIDominoMap)
	if res.Stats.TDisch != 0 {
		t.Fatalf("SOI mapping should need no discharge devices, got %d", res.Stats.TDisch)
	}
	sim := New(c, DefaultConfig())
	for i, vec := range fig2Sequence() {
		out, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Errorf("cycle %d: corrupted output: %v", i, e)
			}
		}
		want, _ := res.Eval(vec)
		if out["f"] != want["f"] {
			t.Errorf("cycle %d: f=%v, want %v", i, out["f"], want["f"])
		}
	}
}

// TestSimulatorMatchesLogic: protected circuits under random sequences
// track the mapped network's function cycle by cycle.
func TestSimulatorMatchesLogic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := randomCircuit(rng)
	for _, algo := range []func(*logic.Network, mapper.Options) (*mapper.Result, error){
		mapper.DominoMap, mapper.RSMap, mapper.SOIDominoMap,
	} {
		res, c := buildCircuit(t, n, algo)
		sim := New(c, DefaultConfig())
		for cyc, vec := range RandomVectors(c, rand.New(rand.NewSource(7)), 50) {
			got, events, err := sim.Cycle(vec)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if e.Corrupted {
					t.Fatalf("%s: protected circuit corrupted at cycle %d: %v", res.Algorithm, cyc, e)
				}
			}
			want, err := res.Eval(vec)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range want {
				if got[name] != v {
					t.Fatalf("%s cycle %d: output %q = %v, want %v", res.Algorithm, cyc, name, got[name], v)
				}
			}
		}
	}
}

// holdingVectors generates stressful sequences: inputs hold for several
// cycles then switch, maximizing body-charging opportunities.
func holdingVectors(c *netlist.Circuit, rng *rand.Rand, cycles int) []map[string]bool {
	var vecs []map[string]bool
	cur := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		cur[in] = rng.Intn(2) == 1
	}
	for len(vecs) < cycles {
		hold := 2 + rng.Intn(4)
		for i := 0; i < hold && len(vecs) < cycles; i++ {
			cp := make(map[string]bool, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			vecs = append(vecs, cp)
		}
		// Flip a random subset.
		for _, in := range c.Inputs {
			if rng.Intn(3) == 0 {
				cur[in] = !cur[in]
			}
		}
	}
	return vecs
}

// Property: mapped-and-protected circuits never corrupt under holding
// stress patterns, for all three algorithms; the unprotected baseline
// realization of the same circuits is allowed to (and the comparison is
// reported when it does).
func TestProtectedNeverCorruptsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(3))}
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
			c, err := netlist.Build(res)
			if err != nil {
				return false
			}
			sim := New(c, DefaultConfig())
			vecs := holdingVectors(c, rand.New(rand.NewSource(seed+1)), 60)
			for _, vec := range vecs {
				got, events, err := sim.Cycle(vec)
				if err != nil {
					return false
				}
				for _, e := range events {
					if e.Corrupted {
						return false
					}
				}
				want, err := res.Eval(vec)
				if err != nil {
					return false
				}
				for name, v := range want {
					if got[name] != v {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestUnprotectedStressFindsPBE: a circuit rich in PBE-prone structure,
// realized without discharge devices, must show corrupted outputs under
// holding stress. This is the software analogue of the paper's claim that
// ignoring the PBE "will possibly obtain circuits that do not function
// correctly".
func TestUnprotectedStressFindsPBE(t *testing.T) {
	// Several (A+B+C)*D-shaped cones.
	n := logic.New("prone")
	var outs []int
	for k := 0; k < 4; k++ {
		a := n.AddInput("a" + string(rune('0'+k)))
		b := n.AddInput("b" + string(rune('0'+k)))
		c := n.AddInput("c" + string(rune('0'+k)))
		d := n.AddInput("d" + string(rune('0'+k)))
		or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
		outs = append(outs, n.AddGate(logic.And, or3, d))
	}
	for i, o := range outs {
		n.AddOutput("f"+string(rune('0'+i)), o)
	}
	res, c := buildCircuit(t, n, mapper.DominoMap)
	if res.Stats.TDisch == 0 {
		t.Fatal("test circuit should demand discharge devices under the baseline")
	}
	cfg := DefaultConfig()
	cfg.DisableDischarge = true
	sim := New(c, cfg)
	corrupted := 0
	for _, vec := range holdingVectors(c, rand.New(rand.NewSource(13)), 300) {
		_, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Error("expected corrupted evaluations in the unprotected circuit under stress")
	}
}

func TestMissingInput(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.DominoMap)
	sim := New(c, DefaultConfig())
	if _, _, err := sim.Cycle(map[string]bool{"A": true}); err == nil {
		t.Error("Cycle with missing inputs should fail")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 3, Gate: 1, Devices: []int{4, 5}, Corrupted: true}
	if s := e.String(); !strings.Contains(s, "CORRUPTED") {
		t.Errorf("Event.String = %q", s)
	}
	e.Corrupted = false
	if s := e.String(); !strings.Contains(s, "subcritical") {
		t.Errorf("Event.String = %q", s)
	}
}

func TestRandomVectorsShape(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.DominoMap)
	vecs := RandomVectors(c, rand.New(rand.NewSource(1)), 10)
	if len(vecs) != 10 || len(vecs[0]) != len(c.Inputs) {
		t.Errorf("vectors shape wrong: %d x %d", len(vecs), len(vecs[0]))
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.DominoMap)
	sim := New(c, Config{})
	if sim.cfg.BodyChargeThreshold != DefaultConfig().BodyChargeThreshold {
		t.Error("zero config should adopt defaults")
	}
	if sim.cfg.MinBipolarWidth != DefaultConfig().MinBipolarWidth {
		t.Error("zero MinBipolarWidth should adopt default")
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
	for i, ngates := 0, 6+rng.Intn(18); i < ngates; i++ {
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
