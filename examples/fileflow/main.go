// fileflow demonstrates the interchange surface: read circuits from the
// two classic benchmark formats (ISCAS-89 .bench and BLIF), map them to
// SOI domino, verify, and export every downstream artifact — a Graphviz
// view of the mapping, a transistor-level SPICE deck, and a VCD waveform
// of a short simulation.
//
//	go run ./examples/fileflow [outdir]
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"soidomino/internal/benchfmt"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
)

func main() {
	outdir := "/tmp/soidomino-fileflow"
	if len(os.Args) > 1 {
		outdir = os.Args[1]
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	bench, err := os.Open("testdata/c17.bench")
	if err != nil {
		log.Fatal(err)
	}
	c17, err := benchfmt.Parse("c17", bench)
	bench.Close()
	if err != nil {
		log.Fatal(err)
	}

	blifFile, err := os.Open("testdata/maj.blif")
	if err != nil {
		log.Fatal(err)
	}
	maj, err := blif.Parse(blifFile)
	blifFile.Close()
	if err != nil {
		log.Fatal(err)
	}

	for _, src := range []*logic.Network{c17, maj} {
		if err := flow(src, outdir); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("artifacts written to", outdir)
}

func flow(src *logic.Network, outdir string) error {
	p, err := report.PrepareNetwork(src)
	if err != nil {
		return err
	}
	res, err := p.Map(context.Background(), report.SOI, mapper.DefaultOptions(), true) // verified
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %s -> %s\n", src.Name, src, res.Stats)

	// Graphviz view of the mapping.
	dot, err := os.Create(filepath.Join(outdir, src.Name+".dot"))
	if err != nil {
		return err
	}
	if err := res.WriteDot(dot); err != nil {
		dot.Close()
		return err
	}
	dot.Close()

	// Transistor-level realization and SPICE deck.
	circ, err := netlist.Build(res)
	if err != nil {
		return err
	}
	if err := circ.Audit(); err != nil {
		return err
	}
	sp, err := os.Create(filepath.Join(outdir, src.Name+".sp"))
	if err != nil {
		return err
	}
	if err := circ.WriteSpice(sp, netlist.DefaultSpiceOptions()); err != nil {
		sp.Close()
		return err
	}
	sp.Close()

	// Short switch-level simulation with a waveform trace.
	sim := soisim.New(circ, soisim.DefaultConfig())
	sim.EnableTrace(soisim.TraceGates)
	for _, vec := range soisim.RandomVectors(circ, rand.New(rand.NewSource(5)), 12) {
		if _, _, err := sim.Cycle(vec); err != nil {
			return err
		}
	}
	vcd, err := os.Create(filepath.Join(outdir, src.Name+".vcd"))
	if err != nil {
		return err
	}
	if err := sim.WriteVCD(vcd); err != nil {
		vcd.Close()
		return err
	}
	return vcd.Close()
}
