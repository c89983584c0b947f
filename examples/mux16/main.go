// mux16 maps the cm150 benchmark (a 16:1 multiplexer, one of the paper's
// evaluation circuits) with all three algorithms and compares the
// discharge-transistor demands — the paper's Table I/II comparison on one
// circuit, with functional verification and a transistor-level audit.
//
//	go run ./examples/mux16
package main

import (
	"context"
	"fmt"
	"log"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/report"
)

func main() {
	src := bench.MustBuild("cm150")
	fmt.Println("circuit:", src)

	p, err := report.PrepareNetwork(src)
	if err != nil {
		log.Fatal(err)
	}

	opt := mapper.DefaultOptions()
	// The harness convention: the PBE-blind mappers order stacks
	// pseudorandomly, like a bulk-CMOS flow that never thinks about
	// discharge points.
	opt.BaselineStackOrder = mapper.OrderHashed

	for _, algo := range []report.Algorithm{report.Domino, report.RS, report.SOI} {
		res, err := p.Map(context.Background(), algo, opt, true) // true: verify equivalence
		if err != nil {
			log.Fatal(err)
		}
		circ, err := netlist.Build(res)
		if err != nil {
			log.Fatal(err)
		}
		if err := circ.Audit(); err != nil {
			log.Fatal(err)
		}
		if err := circ.CrossCheck(res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %s  (%d devices at transistor level)\n",
			res.Algorithm, res.Stats, len(circ.Devices))
	}

	fmt.Println()
	fmt.Println("The SOI mapper grounds every parallel stack it can, so the")
	fmt.Println("multiplexer tree needs no pre-discharge transistors at all;")
	fmt.Println("the PBE-blind baseline pays for its arbitrary stack orders.")
}
