package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/power"
)

// PowerRow translates Table III's motivation into energy: the per-cycle
// clock and evaluation energy of the baseline, the SOI mapping, and the
// SOI mapping with doubled clock weight.
type PowerRow struct {
	Circuit string
	Base    power.Estimate
	SOI     power.Estimate
	SOIK2   power.Estimate
}

// PowerTable is the clock-power extension experiment.
type PowerTable struct {
	Title string
	Rows  []PowerRow
}

// AvgClockSavings returns the average percent clock-energy reduction of
// {SOI vs base, SOI k=2 vs SOI k=1}.
func (t *PowerTable) AvgClockSavings() [2]float64 {
	var s [2]float64
	for _, r := range t.Rows {
		if r.Base.Clock > 0 {
			s[0] += 100 * (r.Base.Clock - r.SOI.Clock) / r.Base.Clock
		}
		if r.SOI.Clock > 0 {
			s[1] += 100 * (r.SOI.Clock - r.SOIK2.Clock) / r.SOI.Clock
		}
	}
	n := float64(len(t.Rows))
	return [2]float64{s[0] / n, s[1] / n}
}

// RunPower estimates per-cycle energy across the Table II suite.
func RunPower(opt mapper.Options, check bool) (*PowerTable, error) {
	opt = harness(opt)
	params := power.DefaultParams()
	tab := &PowerTable{Title: "Extension: per-cycle energy (normalized), clock vs evaluation"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		row := PowerRow{Circuit: name}
		for _, variant := range []struct {
			algo Algorithm
			k    int
			dst  *power.Estimate
		}{
			{Domino, 1, &row.Base},
			{SOI, 1, &row.SOI},
			{SOI, 2, &row.SOIK2},
		} {
			o := opt
			o.ClockWeight = variant.k
			res, err := p.Map(context.Background(), variant.algo, o, check && variant.k == 1)
			if err != nil {
				return nil, err
			}
			est, err := power.Analyze(res, params)
			if err != nil {
				return nil, err
			}
			*variant.dst = *est
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Write renders the table.
func (t *PowerTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase clk\teval\tsoi clk\teval\tsoi k2 clk\teval\tclk save%")
	for _, r := range t.Rows {
		save := 0.0
		if r.Base.Clock > 0 {
			save = 100 * (r.Base.Clock - r.SOI.Clock) / r.Base.Clock
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
			r.Circuit, r.Base.Clock, r.Base.Evaluation,
			r.SOI.Clock, r.SOI.Evaluation,
			r.SOIK2.Clock, r.SOIK2.Evaluation, save)
	}
	avg := t.AvgClockSavings()
	fmt.Fprintf(tw, "average\t\t\t\t\t\t\t%.1f (k2 adds %.1f)\n", avg[0], avg[1])
	return tw.Flush()
}
