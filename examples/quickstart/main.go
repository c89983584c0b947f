// Quickstart: build a small logic network with the public API, run it
// through the full SOI domino mapping pipeline (unate.Decompose ->
// Convert -> map), and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/unate"
	"soidomino/internal/verify"
)

func main() {
	// 1. Describe the logic: f = (a XOR b) AND (c OR !d), g = NAND(a, c).
	n := logic.New("quickstart")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddGate(logic.Xor, a, b)
	or := n.AddGate(logic.Or, c, n.AddGate(logic.Not, d))
	n.AddOutput("f", n.AddGate(logic.And, x, or))
	n.AddOutput("g", n.AddGate(logic.Nand, a, c))
	fmt.Println("source: ", n)

	// 2. Decompose to 2-input AND/OR over complementable literals, then
	//    convert to unate form (inversions pushed to the primary inputs,
	//    the form domino needs).
	dec, err := unate.Decompose(n)
	if err != nil {
		log.Fatal(err)
	}
	u, err := dec.Convert()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unate:  ", u.Network)

	// 3. Map to SOI domino logic: the DP minimizes total transistors
	//    including the p-discharge devices that prevent the Parasitic
	//    Bipolar Effect.
	res, err := mapper.SOIDominoMap(u.Network, mapper.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mapped: ", res.Stats)
	fmt.Print(res.Dump())

	// 4. Verify the mapping computes the same functions.
	if err := verify.MustBeEquivalent(n, res, verify.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalence verified")

	// 5. Realize at the transistor level.
	circ, err := netlist.Build(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d devices (%d clock-connected)\n",
		len(circ.Devices), circ.Stats.TClock())
}
