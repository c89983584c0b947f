package soisim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/unate"
)

// These tests validate the sequence-aware discharge pruning (paper §VII,
// mapper.Options.SequenceAware) against the simulator's independent
// floating-body model: circuits that dropped "unexcitable" discharge
// devices must still never corrupt under stress.

func mapSeq(t *testing.T, n *logic.Network, algo func(*logic.Network, mapper.Options) (*mapper.Result, error),
	seq bool) (*mapper.Result, *netlist.Circuit) {
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
	opt.SequenceAware = seq
	res, err := algo(u.Network, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
	c, err := netlist.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	return res, c
}

// muxTree is mux(s, a, b) AND e: in source order the baseline stacks the
// multiplexer's parallel pair above e, creating discharge points whose
// charging scenario needs s and !s at once — the sequence-prunable shape.
func muxTree() *logic.Network {
	n := logic.New("muxAnd")
	a := n.AddInput("a")
	b := n.AddInput("b")
	s := n.AddInput("s")
	e := n.AddInput("e")
	mux := n.AddGate(logic.Or,
		n.AddGate(logic.And, n.AddGate(logic.Not, s), a),
		n.AddGate(logic.And, s, b))
	n.AddOutput("y", n.AddGate(logic.And, mux, e))
	return n
}

func TestSequenceAwarePrunesMux(t *testing.T) {
	full, _ := mapSeq(t, muxTree(), mapper.DominoMap, false)
	if full.Stats.TDisch == 0 {
		t.Fatalf("precondition: baseline should need discharges\n%s", full.Dump())
	}
	pruned, _ := mapSeq(t, muxTree(), mapper.DominoMap, true)
	if pruned.Stats.TDisch >= full.Stats.TDisch {
		t.Fatalf("sequence analysis should prune mux discharges: %d -> %d",
			full.Stats.TDisch, pruned.Stats.TDisch)
	}
}

func TestSequenceAwarePrunedMuxSurvivesStress(t *testing.T) {
	res, c := mapSeq(t, muxTree(), mapper.DominoMap, true)
	sim := New(c, DefaultConfig())
	for cyc, vec := range holdingVectors(c, rand.New(rand.NewSource(77)), 600) {
		got, events, err := sim.Cycle(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Corrupted {
				t.Fatalf("pruned mux corrupted at cycle %d: %v", cyc, e)
			}
		}
		want, err := res.Eval(vec)
		if err != nil {
			t.Fatal(err)
		}
		if got["y"] != want["y"] {
			t.Fatalf("cycle %d: output mismatch", cyc)
		}
	}
	if bs := sim.BodyStats(); bs.Corrupted != 0 {
		t.Errorf("exposure: %s", bs)
	}
}

// Property: sequence-aware mappings of random circuits never corrupt
// under holding stress, for the baseline and SOI mappers. A pruning
// unsoundness would surface here as a corrupted evaluation.
func TestSequenceAwareSoundQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(11))}
	algos := []func(*logic.Network, mapper.Options) (*mapper.Result, error){
		mapper.DominoMap, mapper.SOIDominoMap,
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
		opt := mapper.DefaultOptions()
		opt.BaselineStackOrder = mapper.OrderHashed
		opt.SequenceAware = true
		for _, algo := range algos {
			res, err := algo(u.Network, opt)
			if err != nil || res.Audit() != nil {
				return false
			}
			c, err := netlist.Build(res)
			if err != nil || c.Audit() != nil {
				return false
			}
			sim := New(c, DefaultConfig())
			for _, vec := range holdingVectors(c, rand.New(rand.NewSource(seed+5)), 80) {
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

// TestSequenceAwareNeverAddsDevices: pruning is monotone.
func TestSequenceAwareNeverAddsDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := randomCircuit(rng)
		full, _ := mapSeq(t, n, mapper.SOIDominoMap, false)
		pruned, _ := mapSeq(t, n, mapper.SOIDominoMap, true)
		if pruned.Stats.TDisch > full.Stats.TDisch {
			t.Fatalf("trial %d: pruning added devices (%d -> %d)",
				trial, full.Stats.TDisch, pruned.Stats.TDisch)
		}
		if pruned.Stats.TLogic != full.Stats.TLogic {
			t.Fatalf("trial %d: pruning changed logic transistors", trial)
		}
	}
}
