// Command pbesim demonstrates the Parasitic Bipolar Effect on the
// switch-level SOI simulator. By default it replays the paper's §III-B
// failure sequence on the (A+B+C)*D example gate three ways: the
// bulk-style mapping with its discharge device disconnected (fails), the
// same mapping protected (survives), and the SOI mapping, which needs no
// discharge device at all (survives).
//
// With -circuit/-cycles it instead stress-tests a full benchmark under
// randomized holding input patterns and reports PBE statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbesim:", err)
		os.Exit(1)
	}
}

func run() error {
	circuit := flag.String("circuit", "", "stress-test a benchmark instead of the fig. 2 demo")
	cycles := flag.Int("cycles", 500, "stress cycles")
	seed := flag.Int64("seed", 1, "stress pattern seed")
	vcd := flag.String("vcd", "", "write a VCD waveform trace of the fig. 2 demo to this file")
	flag.Parse()

	if *circuit != "" {
		return stress(*circuit, *cycles, *seed)
	}
	return figure2Demo(*vcd)
}

// fig2 builds the paper's running example (A+B+C)*D.
func fig2() *logic.Network {
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))
	return n
}

func figure2Demo(vcdPath string) error {
	seq := []map[string]bool{
		{"A": true, "B": false, "C": false, "D": false},
		{"A": true, "B": false, "C": false, "D": false},
		{"A": true, "B": false, "C": false, "D": false},
		{"A": false, "B": false, "C": false, "D": true},
	}
	fmt.Println("Paper §III-B sequence on (A+B+C)*D: hold A=1,B=C=D=0 for three")
	fmt.Println("cycles (bodies of B and C charge), then drop A and raise D.")
	fmt.Println("Correct output every cycle: f=0.")
	fmt.Println()

	cases := []struct {
		label   string
		algo    report.Algorithm
		disable bool
	}{
		{"Domino_Map, discharge device DISCONNECTED", report.Domino, true},
		{"Domino_Map, discharge device active      ", report.Domino, false},
		{"SOI_Domino_Map (no discharge needed)     ", report.SOI, false},
	}
	for _, tc := range cases {
		p, err := report.PrepareNetwork(fig2())
		if err != nil {
			return err
		}
		res, err := p.Map(context.Background(), tc.algo, mapper.DefaultOptions(), true)
		if err != nil {
			return err
		}
		c, err := netlist.Build(res)
		if err != nil {
			return err
		}
		cfg := soisim.DefaultConfig()
		cfg.DisableDischarge = tc.disable
		sim := soisim.New(c, cfg)
		if vcdPath != "" && tc.disable {
			sim.EnableTrace(soisim.TraceAll)
		}
		fmt.Printf("%s  [%s, gate: %s]\n", tc.label, res.Stats, res.Expr(res.Gates[len(res.Gates)-1].Nodes))
		for i, vec := range seq {
			out, events, err := sim.Cycle(vec)
			if err != nil {
				return err
			}
			status := "ok"
			for _, e := range events {
				status = e.String()
			}
			fmt.Printf("  cycle %d: A=%v B=%v C=%v D=%v -> f=%v  %s\n",
				i, vec["A"], vec["B"], vec["C"], vec["D"], out["f"], status)
		}
		if vcdPath != "" && tc.disable {
			f, err := os.Create(vcdPath)
			if err != nil {
				return err
			}
			if err := sim.WriteVCD(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("  (waveform trace written to %s)\n", vcdPath)
		}
		fmt.Println()
	}
	return nil
}

func stress(name string, cycles int, seed int64) error {
	if _, ok := bench.Get(name); !ok {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	p, err := report.Prepare(name)
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		label   string
		algo    report.Algorithm
		disable bool
	}{
		{"Domino_Map unprotected", report.Domino, true},
		{"Domino_Map protected  ", report.Domino, false},
		{"SOI_Domino_Map        ", report.SOI, false},
	} {
		res, err := p.Map(context.Background(), tc.algo, mapper.DefaultOptions(), false)
		if err != nil {
			return err
		}
		c, err := netlist.Build(res)
		if err != nil {
			return err
		}
		cfg := soisim.DefaultConfig()
		cfg.DisableDischarge = tc.disable
		sim := soisim.New(c, cfg)
		rng := rand.New(rand.NewSource(seed))
		corrupted, triggers := 0, 0
		cur := map[string]bool{}
		for _, in := range c.Inputs {
			cur[in] = rng.Intn(2) == 1
		}
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc%3 == 2 { // hold inputs for a few cycles, then flip some
				for _, in := range c.Inputs {
					if rng.Intn(3) == 0 {
						cur[in] = !cur[in]
					}
				}
			}
			_, events, err := sim.Cycle(cur)
			if err != nil {
				return err
			}
			for _, e := range events {
				triggers++
				if e.Corrupted {
					corrupted++
				}
			}
		}
		fmt.Printf("%s  %s: %d bipolar episodes, %d corrupted evaluations over %d cycles\n",
			tc.label, name, triggers, corrupted, cycles)
	}
	return nil
}
