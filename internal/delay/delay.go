// Package delay estimates evaluate-phase delay of a mapped domino circuit
// with an Elmore-flavored model, replacing the level count the paper uses
// as its delay proxy. The paper explicitly waves stack-order delay away
// ("Reordering changes delay, but since diffusion capacitances are
// relatively low, we ignore them as a first order approximation", §III-C)
// — this package measures what that approximation costs: the PBE-driven
// reordering of SOI_Domino_Map moves transistors within stacks and the
// model quantifies the resulting delay movement against the baseline.
//
// The model (all constants in normalized tau units, configurable):
//
//   - A rising input at depth d below the dynamic node discharges the
//     stack through the devices beneath it (TauStack each) and must drain
//     the charge of the nodes above it through itself (TauPos per device
//     above). Deep inputs switch fast; inputs at the top of tall stacks
//     pay for the whole chain below them.
//   - Each gate adds a fixed output-stage delay (TauGate; compound NAND/
//     NOR stages pay it per extra stage input) plus TauLoad per driven
//     transistor on its output net.
//   - Complemented primary inputs arrive after one static inverter
//     (TauInv).
//
// Arrival times propagate through the domino cascade in topological
// order; the critical path is reconstructed per gate from the worst
// (leaf, arrival) pair.
package delay

import (
	"fmt"
	"math"
	"strings"

	"soidomino/internal/mapper"
	"soidomino/internal/sp"
)

// Params are the model's normalized time constants.
type Params struct {
	TauStack float64 // per series device on the discharge path below the input
	TauPos   float64 // per device above the input (diffusion charge it must drain)
	TauGate  float64 // fixed output-stage delay per gate
	TauExtra float64 // additional output-stage delay per compound stage beyond the first
	TauLoad  float64 // per transistor gate driven by the output net
	TauInv   float64 // input inverter delay for complemented primary inputs
}

// DefaultParams reflects SOI's low diffusion capacitance: the position
// term is small relative to the stack term, which is the paper's stated
// justification for ignoring reordering delay.
func DefaultParams() Params {
	return Params{
		TauStack: 1.0,
		TauPos:   0.2,
		TauGate:  1.5,
		TauExtra: 0.6,
		TauLoad:  0.25,
		TauInv:   1.0,
	}
}

// Analysis is the result of a delay pass.
type Analysis struct {
	// ArrivalOut[g] is the arrival time of gate g's output.
	ArrivalOut []float64
	// Critical is the worst primary-output arrival.
	Critical float64
	// CriticalOutput names the latest primary output.
	CriticalOutput string
	// CriticalPath lists the gate ids from the path's first gate to the
	// critical output's driver.
	CriticalPath []int
}

// Analyze computes arrival times for a mapped circuit.
func Analyze(res *mapper.Result, p Params) (*Analysis, error) {
	loads := outputLoads(res)
	a := &Analysis{ArrivalOut: make([]float64, len(res.Gates))}
	worstLeafGate := make([]int, len(res.Gates)) // driving gate of the worst leaf, -1 for PI

	for _, g := range res.Gates {
		worst := 0.0
		worstRef := -1
		for _, st := range g.StageSpans() {
			leaves := leafGeometry(st)
			for _, lg := range leaves {
				var in float64
				ref := lg.leaf.Gate()
				switch {
				case ref >= 0:
					if ref >= g.ID {
						return nil, fmt.Errorf("delay: gate %d driven by later gate %d", g.ID, ref)
					}
					in = a.ArrivalOut[ref]
				case lg.leaf.Negated:
					in = p.TauInv
				}
				t := in + p.TauStack*float64(lg.below+1) + p.TauPos*float64(lg.above)
				if t > worst {
					worst = t
					worstRef = ref
				}
			}
		}
		out := worst + p.TauGate + p.TauExtra*float64(g.StageCount()-1) + p.TauLoad*float64(loads[g.ID])
		a.ArrivalOut[g.ID] = out
		worstLeafGate[g.ID] = worstRef
	}

	a.Critical = math.Inf(-1)
	criticalGate := -1
	for name, gid := range res.OutputGate {
		if t := a.ArrivalOut[gid]; t > a.Critical {
			a.Critical = t
			a.CriticalOutput = name
			criticalGate = gid
		}
	}
	if criticalGate < 0 {
		a.Critical = 0
		return a, nil
	}
	for g := criticalGate; g >= 0; g = worstLeafGate[g] {
		a.CriticalPath = append(a.CriticalPath, g)
	}
	// Reverse to source-to-sink order.
	for i, j := 0, len(a.CriticalPath)-1; i < j; i, j = i+1, j-1 {
		a.CriticalPath[i], a.CriticalPath[j] = a.CriticalPath[j], a.CriticalPath[i]
	}
	return a, nil
}

// String renders the headline numbers.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical delay %.2f tau at output %q through %d gates",
		a.Critical, a.CriticalOutput, len(a.CriticalPath))
	return b.String()
}

// leafGeom pairs a leaf with its stack position: the number of series
// devices strictly above it on the path to the dynamic node, and strictly
// below it on the path to ground.
type leafGeom struct {
	leaf         sp.Node
	above, below int
}

// leafGeometry computes positions for every leaf of a stage span.
func leafGeometry(s sp.Span) []leafGeom {
	var out []leafGeom
	var walk func(i, above, below int)
	walk = func(i, above, below int) {
		switch n := s[i]; n.Kind {
		case sp.Leaf:
			out = append(out, leafGeom{leaf: n, above: above, below: below})
		case sp.Parallel:
			for _, c := range s.Children(i, nil) {
				walk(c, above, below)
			}
		case sp.Series:
			// Heights of the children partition the path.
			children := s.Children(i, nil)
			heights := make([]int, len(children))
			total := 0
			for k, c := range children {
				heights[k] = s[s.Start(c) : c+1].Height()
				total += heights[k]
			}
			used := 0
			for k, c := range children {
				walk(c, above+used, below+total-used-heights[k])
				used += heights[k]
			}
		}
	}
	walk(len(s)-1, 0, 0)
	return out
}

// outputLoads counts, per gate, the transistor gates its output drives.
func outputLoads(res *mapper.Result) []int {
	loads := make([]int, len(res.Gates))
	for _, g := range res.Gates {
		for _, n := range g.Nodes {
			if n.Kind == sp.Leaf && n.Gate() >= 0 {
				loads[n.Gate()]++
			}
		}
	}
	for _, gid := range res.OutputGate {
		loads[gid]++ // whatever the primary output feeds downstream
	}
	return loads
}
