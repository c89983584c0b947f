package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/layout"
	"soidomino/internal/mapper"
)

// AreaRow compares diffusion-aware area (internal/layout) instead of raw
// transistor counts: discharge devices widen and break the p-diffusion
// rows, so the SOI mapping's advantage survives the translation from
// device counts to layout width.
type AreaRow struct {
	Circuit   string
	Base, SOI *layout.Analysis
	BaseTot   int // baseline T_total, for the count-vs-area comparison
	SOITot    int
}

// AreaTable is the layout extension experiment.
type AreaTable struct {
	Title string
	Rows  []AreaRow
}

// AvgReductions returns the average percent reductions of {T_total,
// diffusion-aware area}.
func (t *AreaTable) AvgReductions() [2]float64 {
	var s [2]float64
	for _, r := range t.Rows {
		s[0] += pct(r.BaseTot, r.SOITot)
		if r.Base.Area > 0 {
			s[1] += 100 * (r.Base.Area - r.SOI.Area) / r.Base.Area
		}
	}
	n := float64(len(t.Rows))
	return [2]float64{s[0] / n, s[1] / n}
}

// RunArea estimates diffusion-aware area across the Table II suite.
func RunArea(opt mapper.Options, check bool) (*AreaTable, error) {
	opt = harness(opt)
	params := layout.DefaultParams()
	tab := &AreaTable{Title: "Extension: diffusion-aware area (pitch units) vs transistor counts"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		base, err := p.Map(context.Background(), Domino, opt, check)
		if err != nil {
			return nil, err
		}
		soi, err := p.Map(context.Background(), SOI, opt, false)
		if err != nil {
			return nil, err
		}
		ab, err := layout.Analyze(base, params)
		if err != nil {
			return nil, err
		}
		as, err := layout.Analyze(soi, params)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, AreaRow{
			Circuit: name, Base: ab, SOI: as,
			BaseTot: base.Stats.TTotal, SOITot: soi.Stats.TTotal,
		})
	}
	return tab, nil
}

// Write renders the table.
func (t *AreaTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase Ttot\tarea\tpbreaks\tsoi Ttot\tarea\tpbreaks\tdTtot%\tdArea%")
	for _, r := range t.Rows {
		dA := 0.0
		if r.Base.Area > 0 {
			dA = 100 * (r.Base.Area - r.SOI.Area) / r.Base.Area
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%d\t%.0f\t%d\t%.2f\t%.2f\n",
			r.Circuit, r.BaseTot, r.Base.Area, r.Base.PBreaks,
			r.SOITot, r.SOI.Area, r.SOI.PBreaks,
			pct(r.BaseTot, r.SOITot), dA)
	}
	avg := t.AvgReductions()
	fmt.Fprintf(tw, "average\t\t\t\t\t\t\t%.2f\t%.2f\n", avg[0], avg[1])
	return tw.Flush()
}
