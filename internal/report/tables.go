package report

import (
	"context"
	"fmt"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
)

// pct returns the percent reduction from base to cmp (positive = cmp is
// smaller).
func pct(base, cmp int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-cmp) / float64(base)
}

// harness applies the experiment-wide conventions: the PBE-blind mappers
// run with pseudorandom stack order, modeling the arbitrary operand order
// real netlists reach a bulk-CMOS mapper with (see mapper.OrderHashed).
func harness(opt mapper.Options) mapper.Options {
	opt.BaselineStackOrder = mapper.OrderHashed
	return opt
}

// CompareRow is one circuit of Tables I and II: the Domino_Map baseline
// against RS_Map or SOI_Domino_Map, plus the paper's published numbers
// when available.
type CompareRow struct {
	Circuit   string
	Base, Cmp mapper.Stats
	// Paper values: zero when the paper's table lacks the circuit.
	PaperBase, PaperCmp paperTriple
}

// DischReduction returns the measured percent reduction in discharge
// transistors.
func (r CompareRow) DischReduction() float64 { return pct(r.Base.TDisch, r.Cmp.TDisch) }

// TotalReduction returns the measured percent reduction in total
// transistors.
func (r CompareRow) TotalReduction() float64 { return pct(r.Base.TTotal, r.Cmp.TTotal) }

// CompareTable is a regenerated Table I or II.
type CompareTable struct {
	Title     string
	Algorithm Algorithm // the comparison algorithm (RS or SOI)
	Rows      []CompareRow
	// Paper average reductions {T_disch, T_total} for the footer.
	PaperAvg [2]float64
}

// AvgDischReduction averages the per-circuit discharge reductions, the way
// the paper computes its summary row.
func (t *CompareTable) AvgDischReduction() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.DischReduction()
	}
	return s / float64(len(t.Rows))
}

// AvgTotalReduction averages the per-circuit total reductions.
func (t *CompareTable) AvgTotalReduction() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.TotalReduction()
	}
	return s / float64(len(t.Rows))
}

// RunTableI regenerates Table I: Domino_Map vs RS_Map under the area
// objective.
func RunTableI(opt mapper.Options, check bool) (*CompareTable, error) {
	return RunTableIOn(nil, opt, check)
}

// RunTableIOn is RunTableI restricted to the named circuits (nil: the
// paper's full list), preserving the table's row order. Useful for quick
// regressions that pin the output format without mapping all 18 circuits.
func RunTableIOn(circuits []string, opt mapper.Options, check bool) (*CompareTable, error) {
	rows, err := selectCircuits(bench.TableI, circuits)
	if err != nil {
		return nil, err
	}
	return runCompare("Table I: Domino_Map vs RS_Map", rows, RS, paperTableI, paperTableIAvg, opt, check)
}

// RunTableII regenerates Table II: Domino_Map vs SOI_Domino_Map under the
// area objective.
func RunTableII(opt mapper.Options, check bool) (*CompareTable, error) {
	return RunTableIIOn(nil, opt, check)
}

// RunTableIIOn is RunTableII restricted to the named circuits (nil: the
// paper's full list), preserving the table's row order.
func RunTableIIOn(circuits []string, opt mapper.Options, check bool) (*CompareTable, error) {
	rows, err := selectCircuits(bench.TableII, circuits)
	if err != nil {
		return nil, err
	}
	return runCompare("Table II: Domino_Map vs SOI_Domino_Map", rows, SOI, paperTableII, paperTableIIAvg, opt, check)
}

// selectCircuits filters table to the requested circuits, keeping table
// order; nil keeps the whole table, and a name outside the table is an
// error rather than a silently empty row.
func selectCircuits(table, want []string) ([]string, error) {
	if want == nil {
		return table, nil
	}
	in := make(map[string]bool, len(want))
	for _, w := range want {
		in[w] = true
	}
	var out []string
	for _, name := range table {
		if in[name] {
			out = append(out, name)
			delete(in, name)
		}
	}
	for name := range in {
		return nil, fmt.Errorf("report: circuit %q is not in this table", name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("report: no circuits selected")
	}
	return out, nil
}

// runCompare maps each circuit with Domino and with cmp, deriving an RS
// cmp from the Domino mapping (mapFrom).
func runCompare(title string, circuits []string, cmp Algorithm,
	paper map[string][2]paperTriple, paperAvg [2]float64,
	opt mapper.Options, check bool) (*CompareTable, error) {
	opt = harness(opt)
	tab := &CompareTable{Title: title, Algorithm: cmp, PaperAvg: paperAvg}
	for _, name := range circuits {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		base, err := p.Map(context.Background(), Domino, opt, check)
		if err != nil {
			return nil, err
		}
		other, err := p.mapFrom(context.Background(), base, cmp, opt, check)
		if err != nil {
			return nil, err
		}
		row := CompareRow{Circuit: name, Base: base.Stats, Cmp: other.Stats}
		if pv, ok := paper[name]; ok {
			row.PaperBase, row.PaperCmp = pv[0], pv[1]
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// ClockRow is one circuit of Table III: the SOI mapper under clock weights
// k=1 and k=2.
type ClockRow struct {
	Circuit          string
	K1, K2           mapper.Stats
	PaperK1, PaperK2 paperClock
}

// ClockReduction returns the measured percent reduction in clock-connected
// transistors from k=1 to k=2.
func (r ClockRow) ClockReduction() float64 { return pct(r.K1.TClock, r.K2.TClock) }

// ClockTable is a regenerated Table III.
type ClockTable struct {
	Title    string
	Rows     []ClockRow
	PaperAvg float64
}

// AvgClockReduction averages the per-circuit clock-load reductions.
func (t *ClockTable) AvgClockReduction() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.ClockReduction()
	}
	return s / float64(len(t.Rows))
}

// RunTableIII regenerates Table III: SOI_Domino_Map with clock-transistor
// weight k=1 versus k=2.
func RunTableIII(opt mapper.Options, check bool) (*ClockTable, error) {
	opt = harness(opt)
	tab := &ClockTable{Title: "Table III: SOI_Domino_Map clock weight k=1 vs k=2", PaperAvg: paperTableIIIAvg}
	for _, name := range bench.TableIII {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		o1 := opt
		o1.ClockWeight = 1
		r1, err := p.Map(context.Background(), SOI, o1, check)
		if err != nil {
			return nil, err
		}
		o2 := opt
		o2.ClockWeight = 2
		r2, err := p.Map(context.Background(), SOI, o2, check)
		if err != nil {
			return nil, err
		}
		row := ClockRow{Circuit: name, K1: r1.Stats, K2: r2.Stats}
		if pv, ok := paperTableIII[name]; ok {
			row.PaperK1, row.PaperK2 = pv[0], pv[1]
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// DepthRow is one circuit of Table IV: the depth objective.
type DepthRow struct {
	Circuit string
	// L is the 2-input AND/OR depth of the unate source network, the
	// paper's second column.
	L         int
	Base, SOI mapper.Stats
	PaperL    int
	PaperBase paperDepth
	PaperSOI  paperDepth
}

// DischReduction is the measured discharge-transistor reduction.
func (r DepthRow) DischReduction() float64 { return pct(r.Base.TDisch, r.SOI.TDisch) }

// LevelReduction is the measured reduction in domino levels (negative when
// SOI trades levels for discharges, as the paper's count/rot/dalu rows do).
func (r DepthRow) LevelReduction() float64 { return pct(r.Base.Levels, r.SOI.Levels) }

// DepthTable is a regenerated Table IV.
type DepthTable struct {
	Title    string
	Rows     []DepthRow
	PaperAvg [2]float64 // {T_disch, L}
}

// AvgDischReduction averages the per-circuit discharge reductions.
func (t *DepthTable) AvgDischReduction() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.DischReduction()
	}
	return s / float64(len(t.Rows))
}

// AvgLevelReduction averages the per-circuit level reductions.
func (t *DepthTable) AvgLevelReduction() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.LevelReduction()
	}
	return s / float64(len(t.Rows))
}

// RunTableIV regenerates Table IV: Domino_Map vs SOI_Domino_Map under the
// depth objective.
func RunTableIV(opt mapper.Options, check bool) (*DepthTable, error) {
	opt = harness(opt)
	opt.Objective = mapper.Depth
	tab := &DepthTable{Title: "Table IV: depth objective, Domino_Map vs SOI_Domino_Map", PaperAvg: paperTableIVAvg}
	for _, name := range bench.TableIV {
		p, err := Prepare(name)
		if err != nil {
			return nil, err
		}
		base, err := p.Map(context.Background(), Domino, opt, check)
		if err != nil {
			return nil, err
		}
		soi, err := p.Map(context.Background(), SOI, opt, check)
		if err != nil {
			return nil, err
		}
		row := DepthRow{Circuit: name, L: p.Unate.Depth(), Base: base.Stats, SOI: soi.Stats}
		if pv, ok := paperTableIV[name]; ok {
			row.PaperL, row.PaperBase, row.PaperSOI = pv.L, pv.Base, pv.SOI
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Summary renders the one-line verdict comparing a table's measured
// averages against the paper's.
func Summary(name string, measured, paper float64) string {
	return fmt.Sprintf("%s: measured %.2f%% (paper: %.2f%%)", name, measured, paper)
}
