package mapper

import (
	"fmt"

	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// Compound domino is the paper's PBE solution 7 (§III-C): "Complex domino
// structures with the output inverters replaced by static NAND or NOR
// gates may be used to break up large parallel logic trees."
//
// A gate whose pulldown is a series stack f = f1 * f2 can be realized as
// two dynamic stages — one pulldown per segment, each with its own
// precharge and keeper, each segment's bottom directly grounded — whose
// dynamic nodes feed a static NOR: out = NOR(dyn1, dyn2) = f1 * f2. Dually
// a parallel root f = f1 + f2 splits into stages joined by a static NAND.
// Both keep the output monotonically rising, so domino composition rules
// are unchanged.
//
// The PBE payoff of the series split: a stack like (A*B+C)*(D*E+F) needs
// two discharge devices as one gate (fig. 4(b)), but zero as a compound
// pair, because each parallel stack now sits directly on ground.

// CompoundKind names the static output stage of a compound gate.
type CompoundKind uint8

const (
	// CompoundNAND joins parallel-split stages: out = NAND(dyn...).
	CompoundNAND CompoundKind = iota
	// CompoundNOR joins series-split stages: out = NOR(dyn...).
	CompoundNOR
)

func (k CompoundKind) String() string {
	if k == CompoundNOR {
		return "nor"
	}
	return "nand"
}

// Stage is one dynamic stage of a compound gate: a run of the gate's
// root children under a new root of the same kind, in a span of its own.
// Its discharge points are junctions of that span.
type Stage struct {
	Nodes      sp.Span
	Discharges []pbe.Point
	Footed     bool
}

// CompoundInfo carries the compound realization of a gate. Gate.Nodes
// still describes the full logic function (the stages partition its root
// children), so evaluation and equivalence checking are unchanged.
type CompoundInfo struct {
	Kind   CompoundKind
	Stages []Stage
}

// CompoundOptions tunes the post-mapping compound transformation.
type CompoundOptions struct {
	// MinSaving is the minimum total-transistor saving required to
	// convert a gate (>= 1 keeps only strictly profitable conversions).
	MinSaving int
	// SplitWiderThan, when positive, force-splits every gate whose
	// parallel root is wider than this bound even when the conversion
	// costs transistors: the paper motivates solution 7 by the noise
	// robustness of narrower dynamic stages, not only by device count.
	SplitWiderThan int
}

// DefaultCompoundOptions converts every strictly profitable gate.
func DefaultCompoundOptions() CompoundOptions { return CompoundOptions{MinSaving: 1} }

// CompoundStats summarizes a transformation.
type CompoundStats struct {
	Converted int // gates turned into compound pairs
	Saved     int // total transistors saved
}

// CompoundTransform rewrites gates of the result into two-stage compound
// gates wherever that strictly reduces the total transistor count
// (discharge savings versus the extra precharge, keeper, foot and the
// wider static output stage). The result is modified in place and its
// statistics recomputed; the returned stats summarize the conversions.
func CompoundTransform(res *Result, opt CompoundOptions) CompoundStats {
	if opt.MinSaving < 1 {
		opt.MinSaving = 1
	}
	var cs CompoundStats
	var pot []pbe.Point // pbe.Discharges' scratch
	for _, g := range res.Gates {
		if g.Compound != nil {
			continue
		}
		best, saving := bestSplit(g, res.Options, &pot)
		forced := opt.SplitWiderThan > 0 && g.Nodes[len(g.Nodes)-1].Kind == sp.Parallel &&
			int(g.Width) > opt.SplitWiderThan
		if best == nil || (saving < opt.MinSaving && !forced) {
			continue
		}
		// The gate's discharge list is its stages' lists end to end, and
		// any stage foot counts for reporting.
		g.Compound, g.Discharges, g.Footed = best, nil, false
		for _, st := range best.Stages {
			g.Discharges = append(g.Discharges, st.Discharges...)
			g.Footed = g.Footed || st.Footed
		}
		cs.Converted++
		cs.Saved += saving
	}
	res.computeStats()
	return cs
}

// bestSplit searches the two-way splits of the gate's root composition
// and returns the most profitable compound realization, or nil.
func bestSplit(g *Gate, opt Options, pot *[]pbe.Point) (*CompoundInfo, int) {
	s := g.Nodes
	root := s[len(s)-1]
	if root.Kind == sp.Leaf {
		return nil, 0
	}
	kind := CompoundNAND
	if root.Kind == sp.Series {
		kind = CompoundNOR
	}
	oldCost := gateDeviceCost(int(g.Transistors), 1, []bool{g.Footed}, 2, len(g.Discharges))
	children := s.Children(len(s)-1, nil)

	var best *CompoundInfo
	bestSaving := -1 << 30
	for split := 1; split < len(children); split++ {
		// The first stage's children end where the second's begin.
		at := s.Start(children[split])
		stages := []Stage{
			makeStage(regroup(root.Kind, s[:at], split), opt, pot),
			makeStage(regroup(root.Kind, s[at:len(s)-1], len(children)-split), opt, pot),
		}
		disch := len(stages[0].Discharges) + len(stages[1].Discharges)
		feet := []bool{stages[0].Footed, stages[1].Footed}
		// Static 2-input NAND/NOR output stage: 4 devices.
		newCost := gateDeviceCost(int(g.Transistors), 2, feet, 4, disch)
		if saving := oldCost - newCost; saving > bestSaving {
			cp := &CompoundInfo{Kind: kind, Stages: stages}
			best, bestSaving = cp, saving
		}
	}
	return best, bestSaving
}

// regroup builds a stage's span from the spans of n consecutive root
// children: a copy of them, under a new root of the given kind when
// there is more than one.
func regroup(kind sp.Kind, children sp.Span, n int) sp.Span {
	s := append(make(sp.Span, 0, len(children)+1), children...)
	if n > 1 {
		s = append(s, sp.Compose(kind, n))
	}
	return s
}

// makeStage is the dynamic stage of span s: its own discharges, and a
// foot when it has a PI-driven transistor or opt.AlwaysFooted.
func makeStage(s sp.Span, opt Options, pot *[]pbe.Point) Stage {
	return Stage{
		Nodes:      s,
		Discharges: pbe.Discharges(nil, s, opt.SequenceAware, pot),
		Footed:     opt.AlwaysFooted || s.HasPI(),
	}
}

// gateDeviceCost counts the devices of a (possibly compound) gate:
// pulldown transistors, one precharge and keeper per stage, the static
// output stage, the stage feet and the discharge devices.
func gateDeviceCost(pulldown, stages int, feet []bool, outputDevices, discharges int) int {
	c := pulldown + 2*stages + outputDevices + discharges
	for _, f := range feet {
		if f {
			c++
		}
	}
	return c
}

// Kindless helpers used by result/netlist code.

// StageCount returns the number of dynamic stages (1 for plain domino).
func (g *Gate) StageCount() int {
	if g.Compound == nil {
		return 1
	}
	return len(g.Compound.Stages)
}

// StageSpans returns the pulldown span per stage.
func (g *Gate) StageSpans() []sp.Span {
	if g.Compound == nil {
		return []sp.Span{g.Nodes}
	}
	spans := make([]sp.Span, len(g.Compound.Stages))
	for i, st := range g.Compound.Stages {
		spans[i] = st.Nodes
	}
	return spans
}

// validateCompound checks a compound gate's structural invariants; Audit
// checks its stages' discharges with those of plain gates.
func (g *Gate) validateCompound() error {
	ci := g.Compound
	if len(ci.Stages) < 2 {
		return fmt.Errorf("gate %d: compound with %d stages", g.ID, len(ci.Stages))
	}
	wantKind := sp.Parallel
	if ci.Kind == CompoundNOR {
		wantKind = sp.Series
	}
	if root := g.Nodes[len(g.Nodes)-1].Kind; root != wantKind {
		return fmt.Errorf("gate %d: compound %s split of %s root", g.ID, ci.Kind, root)
	}
	total := 0
	for i, st := range ci.Stages {
		m, err := st.Nodes.Measure()
		if err != nil {
			return fmt.Errorf("gate %d: stage %d: %w", g.ID, i, err)
		}
		total += m.Transistors
	}
	if n := g.Nodes.Transistors(); total != n {
		return fmt.Errorf("gate %d: compound stages cover %d transistors of %d", g.ID, total, n)
	}
	return nil
}
