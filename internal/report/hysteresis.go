package report

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/soisim"
)

// HysteresisRow measures floating-body exposure under holding stress for
// one circuit: the paper's claimed side benefit (§I) is that controlling
// the PBE also narrows the body-voltage range and thus the timing
// hysteresis. Exposure is the fraction of device-phases spent with a
// charged body (soisim.BodyStats).
type HysteresisRow struct {
	Circuit     string
	Unprotected soisim.BodyStats // Domino_Map with discharge devices disconnected
	Protected   soisim.BodyStats // Domino_Map as built
	SOI         soisim.BodyStats // SOI_Domino_Map (fewer discharge devices needed)
}

// HysteresisTable is the body-exposure extension experiment.
type HysteresisTable struct {
	Title  string
	Cycles int
	Rows   []HysteresisRow
}

// RunHysteresis stress-simulates a subset of the suite (simulation is the
// expensive part, so the experiment uses representative circuits).
func RunHysteresis(opt mapper.Options, cycles int) (*HysteresisTable, error) {
	opt = harness(opt)
	if cycles <= 0 {
		cycles = 300
	}
	circuits := []string{"cm150", "z4ml", "frg1", "9symml", "b9", "c880"}
	tab := &HysteresisTable{
		Title:  fmt.Sprintf("Extension: floating-body exposure under %d holding-stress cycles", cycles),
		Cycles: cycles,
	}
	for _, name := range circuits {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		row := HysteresisRow{Circuit: name}
		for _, variant := range []struct {
			algo    Algorithm
			disable bool
			dst     *soisim.BodyStats
		}{
			{Domino, true, &row.Unprotected},
			{Domino, false, &row.Protected},
			{SOI, false, &row.SOI},
		} {
			res, err := p.Map(context.Background(), variant.algo, opt, false)
			if err != nil {
				return nil, err
			}
			c, err := netlist.Build(res)
			if err != nil {
				return nil, err
			}
			cfg := soisim.DefaultConfig()
			cfg.DisableDischarge = variant.disable
			sim := soisim.New(c, cfg)
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			cur := make(map[string]bool, len(c.Inputs))
			for _, in := range c.Inputs {
				cur[in] = rng.Intn(2) == 1
			}
			for cyc := 0; cyc < cycles; cyc++ {
				if cyc%4 == 3 {
					for _, in := range c.Inputs {
						if rng.Intn(3) == 0 {
							cur[in] = !cur[in]
						}
					}
				}
				if _, _, err := sim.Cycle(cur); err != nil {
					return nil, err
				}
			}
			*variant.dst = sim.BodyStats()
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Write renders the table.
func (t *HysteresisTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tunprotected body-high%\tevents\tcorrupt\tprotected body-high%\tevents\tSOI body-high%\tevents")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%d\t%d\t%.4f\t%d\t%.4f\t%d\n",
			r.Circuit,
			100*r.Unprotected.HighRatio(), r.Unprotected.Events, r.Unprotected.Corrupted,
			100*r.Protected.HighRatio(), r.Protected.Events,
			100*r.SOI.HighRatio(), r.SOI.Events)
	}
	return tw.Flush()
}
