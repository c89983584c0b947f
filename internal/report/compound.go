package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
)

// CompoundRow measures the compound-domino post-pass (the paper's PBE
// solution 7) on one circuit: the Domino_Map baseline before and after the
// transformation, and the SOI mapping for reference.
type CompoundRow struct {
	Circuit   string
	Before    mapper.Stats
	After     mapper.Stats
	Converted int
	SOI       mapper.Stats
}

// CompoundTable is the solution-7 extension experiment.
type CompoundTable struct {
	Title string
	Rows  []CompoundRow
}

// RunCompound applies the compound transformation to the baseline mapping
// of every Table II circuit and reports where it pays. Equivalence is
// re-verified after the transformation when check is set.
func RunCompound(opt mapper.Options, check bool) (*CompoundTable, error) {
	opt = harness(opt)
	tab := &CompoundTable{Title: "Extension: compound domino (paper solution 7) on the Domino_Map baseline"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		base, err := p.Map(context.Background(), Domino, opt, false)
		if err != nil {
			return nil, err
		}
		row := CompoundRow{Circuit: name, Before: base.Stats}
		cs := mapper.CompoundTransform(base, mapper.DefaultCompoundOptions())
		if err := base.Audit(); err != nil {
			return nil, fmt.Errorf("report: compound on %s: %w", name, err)
		}
		if check {
			if err := verifyAgain(p, base); err != nil {
				return nil, err
			}
		}
		row.After = base.Stats
		row.Converted = cs.Converted
		soi, err := p.Map(context.Background(), SOI, opt, false)
		if err != nil {
			return nil, err
		}
		row.SOI = soi.Stats
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Totals sums converted gates and the transistor saving.
func (t *CompoundTable) Totals() (converted, saved int) {
	for _, r := range t.Rows {
		converted += r.Converted
		saved += r.Before.TTotal - r.After.TTotal
	}
	return converted, saved
}

// Write renders the table.
func (t *CompoundTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase Ttot\tTdis\tcompound Ttot\tTdis\tconverted\tsoi Ttot\tTdis")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Circuit, r.Before.TTotal, r.Before.TDisch,
			r.After.TTotal, r.After.TDisch, r.Converted,
			r.SOI.TTotal, r.SOI.TDisch)
	}
	conv, saved := t.Totals()
	fmt.Fprintf(tw, "total\t\t\t\t\t%d gates\t%d transistors saved\n", conv, saved)
	return tw.Flush()
}
