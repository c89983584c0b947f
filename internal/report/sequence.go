package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
)

// SequenceRow measures the §VII sequence-aware refinement on one circuit:
// discharge devices under the worst-case analysis versus after pruning
// points whose PBE charging scenario is unsatisfiable.
type SequenceRow struct {
	Circuit       string
	Base, BaseSeq mapper.Stats // Domino_Map without/with pruning
	SOI, SOISeq   mapper.Stats // SOI_Domino_Map without/with pruning
}

// SequenceTable is the §VII future-work experiment.
type SequenceTable struct {
	Title string
	Rows  []SequenceRow
}

// Avg returns the average additional discharge reductions pruning brings:
// {baseline, SOI}.
func (t *SequenceTable) Avg() [2]float64 {
	var s [2]float64
	for _, r := range t.Rows {
		s[0] += pct(r.Base.TDisch, r.BaseSeq.TDisch)
		s[1] += pct(r.SOI.TDisch, r.SOISeq.TDisch)
	}
	n := float64(len(t.Rows))
	return [2]float64{s[0] / n, s[1] / n}
}

// RunSequence maps the Table II suite with and without sequence-aware
// pruning for both the baseline and the SOI mapper.
func RunSequence(opt mapper.Options, check bool) (*SequenceTable, error) {
	opt = harness(opt)
	tab := &SequenceTable{Title: "Extension: sequence-aware discharge pruning (paper §VII future work)"}
	for _, name := range bench.TableII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		row := SequenceRow{Circuit: name}
		for _, variant := range []struct {
			algo Algorithm
			seq  bool
			dst  *mapper.Stats
		}{
			{Domino, false, &row.Base},
			{Domino, true, &row.BaseSeq},
			{SOI, false, &row.SOI},
			{SOI, true, &row.SOISeq},
		} {
			o := opt
			o.SequenceAware = variant.seq
			res, err := p.Map(context.Background(), variant.algo, o, check && variant.seq)
			if err != nil {
				return nil, err
			}
			*variant.dst = res.Stats
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Write renders the table.
func (t *SequenceTable) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", t.Title)
	fmt.Fprintln(tw, "circuit\tbase Tdis\t+seq\tpruned%\tsoi Tdis\t+seq\tpruned%")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%.1f\n",
			r.Circuit,
			r.Base.TDisch, r.BaseSeq.TDisch, pct(r.Base.TDisch, r.BaseSeq.TDisch),
			r.SOI.TDisch, r.SOISeq.TDisch, pct(r.SOI.TDisch, r.SOISeq.TDisch))
	}
	avg := t.Avg()
	fmt.Fprintf(tw, "average\t\t\t%.1f\t\t\t%.1f\n", avg[0], avg[1])
	return tw.Flush()
}
