package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
)

// AblationRow dissects where the SOI mapper's advantage comes from on one
// circuit, by inserting intermediate algorithms between the baseline and
// the full algorithm:
//
//	Domino_Map   PBE-blind baseline
//	RS_Map       + post-reordering of the gates' ground-side stacks (paper)
//	RS_Map_deep  + post-reordering of every series group (extension)
//	SOI          the full DP with discharge-aware cost and combine-time
//	             ordering
type AblationRow struct {
	Circuit string
	Base    mapper.Stats
	RS      mapper.Stats
	RSDeep  mapper.Stats
	SOI     mapper.Stats
}

// AblationTable is the design-choice ablation of DESIGN.md §7.
type AblationTable struct {
	Title string
	Rows  []AblationRow
}

// RunAblation maps the Table II suite with all four algorithm variants:
// the DP runs for Domino and SOI, and RS and RS-deep are derived from
// the Domino mapping.
func RunAblation(opt mapper.Options, check bool) (*AblationTable, error) {
	opt = harness(opt)
	tab := &AblationTable{Title: "Ablation: discharge transistors by algorithm variant"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Circuit: name}
		base, err := p.Map(context.Background(), Domino, opt, check)
		if err != nil {
			return nil, err
		}
		rs, err := p.mapFrom(context.Background(), base, RS, opt, check)
		if err != nil {
			return nil, err
		}
		rsDeep, err := p.mapFrom(context.Background(), base, RSDeep, opt, check)
		if err != nil {
			return nil, err
		}
		soi, err := p.Map(context.Background(), SOI, opt, check)
		if err != nil {
			return nil, err
		}
		row.Base, row.RS, row.RSDeep, row.SOI = base.Stats, rs.Stats, rsDeep.Stats, soi.Stats
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Avg returns the average discharge reductions of the three variants
// relative to the baseline: {RS, RSDeep, SOI}.
func (t *AblationTable) Avg() [3]float64 {
	var s [3]float64
	for _, r := range t.Rows {
		s[0] += pct(r.Base.TDisch, r.RS.TDisch)
		s[1] += pct(r.Base.TDisch, r.RSDeep.TDisch)
		s[2] += pct(r.Base.TDisch, r.SOI.TDisch)
	}
	n := float64(len(t.Rows))
	return [3]float64{s[0] / n, s[1] / n, s[2] / n}
}

// Write renders the ablation table.
func (t *AblationTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase Tdis\tRS Tdis\tRSdeep Tdis\tSOI Tdis\tRS%\tRSdeep%\tSOI%")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			r.Circuit, r.Base.TDisch, r.RS.TDisch, r.RSDeep.TDisch, r.SOI.TDisch,
			pct(r.Base.TDisch, r.RS.TDisch),
			pct(r.Base.TDisch, r.RSDeep.TDisch),
			pct(r.Base.TDisch, r.SOI.TDisch))
	}
	avg := t.Avg()
	fmt.Fprintf(tw, "average\t\t\t\t\t%.1f\t%.1f\t%.1f\n", avg[0], avg[1], avg[2])
	return tw.Flush()
}
