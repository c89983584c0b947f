package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/delay"
	"soidomino/internal/mapper"
)

// DelayRow reports the Elmore-flavored critical-delay estimate of each
// algorithm's mapping for one circuit, testing the paper's §III-C claim
// that PBE-driven stack reordering is a second-order delay effect.
type DelayRow struct {
	Circuit         string
	Base, RS, SOI   float64
	LevelsBase      int
	LevelsSOI       int
	CriticalOutBase string
	CriticalOutSOI  string
}

// DelayTable is the reordering-delay extension experiment.
type DelayTable struct {
	Title string
	Rows  []DelayRow
}

// RunDelay estimates critical delays across the Table II suite; the RS
// mapping is derived from the Domino one.
func RunDelay(opt mapper.Options, check bool) (*DelayTable, error) {
	opt = harness(opt)
	params := delay.DefaultParams()
	tab := &DelayTable{Title: "Extension: estimated critical delay (tau) by algorithm"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		row := DelayRow{Circuit: name}
		var dom *mapper.Result
		for i, a := range []Algorithm{Domino, RS, SOI} {
			res, err := p.mapFrom(context.Background(), dom, a, opt, check && i == 0)
			if err != nil {
				return nil, err
			}
			an, err := delay.Analyze(res, params)
			if err != nil {
				return nil, err
			}
			switch a {
			case Domino:
				dom = res
				row.Base = an.Critical
				row.LevelsBase = res.Stats.Levels
				row.CriticalOutBase = an.CriticalOutput
			case RS:
				row.RS = an.Critical
			case SOI:
				row.SOI = an.Critical
				row.LevelsSOI = res.Stats.Levels
				row.CriticalOutSOI = an.CriticalOutput
			}
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// AvgSOIRatio averages SOI/base critical-delay ratios.
func (t *DelayTable) AvgSOIRatio() float64 {
	s, n := 0.0, 0
	for _, r := range t.Rows {
		if r.Base > 0 {
			s += r.SOI / r.Base
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return s / float64(n)
}

// Write renders the table.
func (t *DelayTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase\tRS\tSOI\tSOI/base\tlevels base\tlevels SOI")
	for _, r := range t.Rows {
		ratio := 1.0
		if r.Base > 0 {
			ratio = r.SOI / r.Base
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.3f\t%d\t%d\n",
			r.Circuit, r.Base, r.RS, r.SOI, ratio, r.LevelsBase, r.LevelsSOI)
	}
	fmt.Fprintf(tw, "average SOI/base delay ratio\t\t\t\t%.3f\n", t.AvgSOIRatio())
	return tw.Flush()
}
