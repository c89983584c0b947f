package mapper

import (
	"fmt"

	"soidomino/internal/pbe"
)

// Audit checks the structural invariants of a mapped circuit and returns
// the first violation. It is used by the test suite and by downstream
// consumers that want a defense against mapper regressions:
//
//   - every pulldown tree is a valid SP tree within the W/H bounds,
//   - foot transistors appear exactly where PI-driven pulldowns require,
//   - the recorded discharge points are exactly what the PBE analysis
//     demands for the tree (so no susceptible junction is unprotected),
//   - gates are topologically ordered and levels are consistent,
//   - gate-input leaves reference real gates by their output names.
func (r *Result) Audit() error {
	var a pbe.Analysis // reused across gates
	for _, g := range r.Gates {
		if err := g.Tree.Validate(); err != nil {
			return fmt.Errorf("gate %d: %w", g.ID, err)
		}
		if w := g.Tree.Width(); w > r.Options.MaxWidth {
			return fmt.Errorf("gate %d: width %d exceeds max %d", g.ID, w, r.Options.MaxWidth)
		}
		if h := g.Tree.Height(); h > r.Options.MaxHeight {
			return fmt.Errorf("gate %d: height %d exceeds max %d", g.ID, h, r.Options.MaxHeight)
		}
		if g.Compound != nil {
			if err := g.validateCompound(r.Options.SequenceAware); err != nil {
				return err
			}
		} else {
			wantFooted := r.Options.AlwaysFooted || g.Tree.HasPI()
			if g.Footed != wantFooted {
				return fmt.Errorf("gate %d: footed=%v, want %v", g.ID, g.Footed, wantFooted)
			}
			a = pbe.Analyze(g.Tree, a.Immediate[:0], a.Potential[:0])
			want := a.Immediate
			if r.Options.SequenceAware {
				want = pbe.PruneUnexcitable(g.Tree, want)
			}
			if len(want) != len(g.Discharges) {
				return fmt.Errorf("gate %d: %d discharge devices recorded, PBE analysis demands %d",
					g.ID, len(g.Discharges), len(want))
			}
		}
		level := 1
		for _, leaf := range g.Tree.Leaves() {
			switch {
			case leaf.GateRef >= 0:
				if leaf.GateRef >= g.ID {
					return fmt.Errorf("gate %d: input references gate %d out of order", g.ID, leaf.GateRef)
				}
				drv := r.Gates[leaf.GateRef]
				if drv.Output != leaf.Signal {
					return fmt.Errorf("gate %d: leaf signal %q does not match gate %d output %q",
						g.ID, leaf.Signal, drv.ID, drv.Output)
				}
				if leaf.Negated {
					return fmt.Errorf("gate %d: gate-driven leaf %q is negated (domino outputs are monotone)",
						g.ID, leaf.Signal)
				}
				if drv.Level+1 > level {
					level = drv.Level + 1
				}
			case leaf.Negated && !leaf.FromPI:
				return fmt.Errorf("gate %d: negated non-PI leaf %q", g.ID, leaf.Signal)
			}
		}
		if g.Level != level {
			return fmt.Errorf("gate %d: level %d, want %d", g.ID, g.Level, level)
		}
	}
	for name, gid := range r.OutputGate {
		if gid < 0 || gid >= len(r.Gates) {
			return fmt.Errorf("output %q references gate %d out of range", name, gid)
		}
	}
	return nil
}
