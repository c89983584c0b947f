// sweep extends the paper's Table III: it sweeps the clock-transistor
// weight k from 1 to 4 on a few circuits and shows how the mapper trades
// total transistors for clock-network load (fewer clocked feet and
// discharge devices, larger pulldown networks).
//
//	go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

func main() {
	circuits := []string{"9symml", "c880", "dalu", "des"}
	ks := []int{1, 2, 3, 4}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "circuit\tk\tTlogic\tTdisch\tTtotal\tgates\tTclock\tlevels")
	for _, name := range circuits {
		p, err := report.Prepare(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range ks {
			opt := mapper.DefaultOptions()
			opt.ClockWeight = k
			res, err := p.Map(context.Background(), report.SOI, opt, k == 1) // verify once per circuit
			if err != nil {
				log.Fatal(err)
			}
			s := res.Stats
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				name, k, s.TLogic, s.TDisch, s.TTotal, s.Gates, s.TClock, s.Levels)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Raising k penalizes clock-connected devices (p-clock, n-clock,")
	fmt.Println("p-discharge): the mapper forms fewer gates and keeps fewer")
	fmt.Println("discharge devices, reducing clock load at some transistor cost —")
	fmt.Println("the paper's Table III trend.")
}
