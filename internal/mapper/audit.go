package mapper

import (
	"fmt"

	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// Audit checks the structural invariants of a mapped circuit and returns
// the first violation. It is used by the test suite and by downstream
// consumers that want a defense against mapper regressions:
//
//   - every pulldown span is a valid SP tree within the W/H bounds,
//   - foot transistors appear exactly where PI-driven pulldowns require,
//   - the recorded discharge points are exactly what the PBE analysis
//     demands for the pulldown (so no susceptible junction is
//     unprotected),
//   - gates are topologically ordered and levels are consistent,
//   - gate-input leaves reference earlier gates and are never negated,
//   - every gate's summary, and the statistics summed from them, match
//     what the pulldown spans give.
//
// Audit is independent of traceback's bookkeeping and of the discharge
// pass: it recomputes every property from the flat nodes, one pass per
// gate plus the discharges of each of its stages, and only compares the
// result with the recorded summary.
func (r *Result) Audit() error {
	longest := 0
	for _, g := range r.Gates {
		longest = max(longest, len(g.Nodes))
	}
	// A gate's stages have fewer junctions than it has nodes, so neither
	// its discharges nor one stage's potential points outgrow their half
	// of buf.
	buf := make([]pbe.Point, 2*longest)
	pot := buf[longest:longest]
	levels := make([]int, len(r.Gates))
	inverted := make([]bool, len(r.Source.Inputs))
	var sum Stats
	for i, g := range r.Gates {
		if g.ID != i {
			return fmt.Errorf("gate %d: listed at position %d", g.ID, i)
		}
		m, err := g.Nodes.Measure()
		if err != nil {
			return fmt.Errorf("gate %d: %w", g.ID, err)
		}
		if m.Width > r.Options.MaxWidth {
			return fmt.Errorf("gate %d: width %d exceeds max %d", g.ID, m.Width, r.Options.MaxWidth)
		}
		if m.Height > r.Options.MaxHeight {
			return fmt.Errorf("gate %d: height %d exceeds max %d", g.ID, m.Height, r.Options.MaxHeight)
		}
		level, newInverters := 1, 0
		for _, n := range g.Nodes {
			if n.Kind != sp.Leaf {
				continue
			}
			if ref := n.Gate(); ref >= 0 {
				if ref >= g.ID {
					return fmt.Errorf("gate %d: input references gate %d out of order", g.ID, ref)
				}
				if n.Negated {
					return fmt.Errorf("gate %d: leaf driven by gate %d is negated (domino outputs are monotone)", g.ID, ref)
				}
				level = max(level, levels[ref]+1)
				continue
			}
			in := n.Input()
			if in >= len(inverted) {
				return fmt.Errorf("gate %d: leaf references input %d of %d", g.ID, in, len(inverted))
			}
			if n.Negated && !inverted[in] {
				inverted[in] = true
				newInverters++
			}
		}
		levels[i] = level
		switch {
		case g.Transistors != m.Transistors:
			return fmt.Errorf("gate %d: %d transistors recorded, pulldown has %d", g.ID, g.Transistors, m.Transistors)
		case g.Width != m.Width || g.Height != m.Height:
			return fmt.Errorf("gate %d: shape {%d,%d} recorded, pulldown is {%d,%d}", g.ID, g.Width, g.Height, m.Width, m.Height)
		case g.HasPI != m.HasPI:
			return fmt.Errorf("gate %d: has-PI %v recorded, pulldown says %v", g.ID, g.HasPI, m.HasPI)
		case g.Level != level:
			return fmt.Errorf("gate %d: level %d, want %d", g.ID, g.Level, level)
		case g.NewInverters != newInverters:
			return fmt.Errorf("gate %d: %d new inverted inputs recorded, pulldown adds %d", g.ID, g.NewInverters, newInverters)
		}
		// A plain gate is its own one stage; a compound gate's list is its
		// stages' lists end to end.
		stages := []Stage{{Nodes: g.Nodes, Discharges: g.Discharges}}
		if g.Compound != nil {
			if err := g.validateCompound(); err != nil {
				return err
			}
			stages = g.Compound.Stages
		} else if want := r.Options.AlwaysFooted || m.HasPI; g.Footed != want {
			return fmt.Errorf("gate %d: footed=%v, want %v", g.ID, g.Footed, want)
		}
		want := buf[:0:longest]
		for k, st := range stages {
			mark := len(want)
			want = pbe.Discharges(want, st.Nodes, r.Options.SequenceAware, &pot)
			if err := sameDischarges(st.Discharges, want[mark:]); err != nil {
				return fmt.Errorf("gate %d: stage %d: %w", g.ID, k, err)
			}
		}
		if err := sameDischarges(g.Discharges, want); err != nil {
			return fmt.Errorf("gate %d: %w", g.ID, err)
		}
		sum.TLogic += g.logicTransistors(m.Transistors)
		sum.TDisch += len(g.Discharges)
		sum.TClock += g.ClockTransistors()
		sum.Gates++
		sum.Levels = max(sum.Levels, level)
		sum.InputInverters += newInverters
	}
	sum.TTotal = sum.TLogic + sum.TDisch
	if sum != r.Stats {
		return fmt.Errorf("stats %v (%d input inverters) recorded, gates give %v (%d)",
			r.Stats, r.Stats.InputInverters, sum, sum.InputInverters)
	}
	for name, gid := range r.OutputGate {
		if gid < 0 || gid >= len(r.Gates) {
			return fmt.Errorf("output %q references gate %d out of range", name, gid)
		}
	}
	return nil
}

// sameDischarges compares a recorded discharge list with the one the PBE
// analysis demands, point for point.
func sameDischarges(got, want []pbe.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d discharge devices recorded, PBE analysis demands %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("discharge %d recorded at the %v, PBE analysis puts it at the %v", i, got[i], want[i])
		}
	}
	return nil
}
