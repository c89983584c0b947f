// pbedemo walks through the physics of the Parasitic Bipolar Effect on
// the switch-level SOI simulator, reproducing the paper's fig. 2 failure
// narrative (§III-B) and then stress-testing a larger circuit to show that
// mapped-and-protected implementations never mis-evaluate while the
// unprotected bulk-style netlist does.
//
//	go run ./examples/pbedemo
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
)

func main() {
	fmt.Println("== Part 1: the paper's fig. 2 scenario ==")
	figure2()
	fmt.Println()
	fmt.Println("== Part 2: stress test on a PBE-prone circuit ==")
	stress()
}

func figure2() {
	// (A+B+C)*D, mapped the bulk way: the parallel stack sits above D.
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))

	p, err := report.PrepareNetwork(n)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Map(context.Background(), report.Domino, mapper.DefaultOptions(), true)
	if err != nil {
		log.Fatal(err)
	}
	circ, err := netlist.Build(res)
	if err != nil {
		log.Fatal(err)
	}

	cfg := soisim.DefaultConfig()
	cfg.DisableDischarge = true // bulk-style: no pre-discharge device
	sim := soisim.New(circ, cfg)

	fmt.Printf("gate %s, simulated WITHOUT its discharge device:\n", res.Gates[0].Tree)
	seq := []map[string]bool{
		{"A": true, "B": false, "C": false, "D": false}, // node 1 charges high
		{"A": true, "B": false, "C": false, "D": false}, // bodies of B and C charge
		{"A": true, "B": false, "C": false, "D": false}, //
		{"A": false, "B": false, "C": false, "D": true}, // D pulls node 1 low: PBE
		{"A": false, "B": false, "C": false, "D": true}, // keeper recovered at precharge
	}
	for i, vec := range seq {
		out, events, err := sim.Cycle(vec)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		for _, e := range events {
			note = "  <-- " + e.String()
		}
		fmt.Printf("  cycle %d: f=%v (should be false)%s\n", i, out["f"], note)
	}
}

func stress() {
	// Many (A+B+C)*D-shaped cones: each is a PBE hazard when mapped blind.
	n := logic.New("prone")
	for k := 0; k < 8; k++ {
		a := n.AddInput(fmt.Sprintf("a%d", k))
		b := n.AddInput(fmt.Sprintf("b%d", k))
		c := n.AddInput(fmt.Sprintf("c%d", k))
		d := n.AddInput(fmt.Sprintf("d%d", k))
		or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
		n.AddOutput(fmt.Sprintf("f%d", k), n.AddGate(logic.And, or3, d))
	}
	p, err := report.PrepareNetwork(n)
	if err != nil {
		log.Fatal(err)
	}

	for _, tc := range []struct {
		label   string
		algo    report.Algorithm
		disable bool
	}{
		{"bulk mapping, unprotected", report.Domino, true},
		{"bulk mapping, discharges inserted", report.Domino, false},
		{"SOI mapping (zero discharges)", report.SOI, false},
	} {
		res, err := p.Map(context.Background(), tc.algo, mapper.DefaultOptions(), false)
		if err != nil {
			log.Fatal(err)
		}
		circ, err := netlist.Build(res)
		if err != nil {
			log.Fatal(err)
		}
		cfg := soisim.DefaultConfig()
		cfg.DisableDischarge = tc.disable
		sim := soisim.New(circ, cfg)

		rng := rand.New(rand.NewSource(99))
		cur := map[string]bool{}
		for _, in := range circ.Inputs {
			cur[in] = rng.Intn(2) == 1
		}
		corrupted := 0
		const cycles = 400
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc%4 == 3 {
				for _, in := range circ.Inputs {
					if rng.Intn(3) == 0 {
						cur[in] = !cur[in]
					}
				}
			}
			_, events, err := sim.Cycle(cur)
			if err != nil {
				log.Fatal(err)
			}
			for _, e := range events {
				if e.Corrupted {
					corrupted++
				}
			}
		}
		fmt.Printf("  %-36s Tdisch=%d, corrupted evaluations: %d / %d cycles\n",
			tc.label, res.Stats.TDisch, corrupted, cycles)
	}
}
