package mapper

import (
	"fmt"
	"strings"

	"soidomino/internal/logic"
	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// Gate is one mapped domino gate. Besides the pulldown network it always
// carries a clocked p-precharge transistor, a static output inverter (two
// devices) and a keeper; Footed gates add an n-clock foot; Discharges lists
// the internal junctions carrying clocked p-discharge transistors.
type Gate struct {
	ID     int
	Output string // name of the gate's output signal
	NodeID int    // unate-network node this gate implements
	// Nodes is the pulldown network: the gate's span of the one node
	// array its Result holds. A leaf names a gate by id and a primary
	// input by its index in Result.Source.Inputs.
	Nodes sp.Span
	// Discharges are junctions of Nodes carrying p-discharge devices, in
	// pbe.Analyze's order, placed by the discharge pass every mapper runs
	// after traceback (pbe.Discharges). A compound gate's list is its
	// stages' lists end to end, each point a junction of its own stage's
	// span.
	Discharges []pbe.Point
	// PredictedDischarges is the DP's own forecast of how many p-discharge
	// devices this gate's pulldown carries: the chosen tuple's OwnDisch,
	// recorded at traceback, before the discharge pass places any. For
	// algorithms that leave the traced pulldown untouched it must equal
	// the unpruned pbe.GateDischargePoints count exactly — the fuzzing
	// oracles cross-check the two. It is -1 when the prediction is not
	// meaningful: RS_Map's discharge pass (and Rearrange) reorders the
	// traced pulldown first, so the DP's forecast no longer describes
	// it. Note Discharges itself may be shorter when SequenceAware
	// pruning removed unexcitable points.
	PredictedDischarges int
	Footed              bool
	Level               int // 1-based domino level (max over driving gates + 1)

	// The summary traceback records while it writes Nodes, so the
	// statistics need no walk of the pulldowns. Audit recomputes each
	// field from Nodes.
	Transistors, Width, Height int
	HasPI                      bool
	// NewInverters counts the complemented primary inputs this gate is
	// the first, in gate order, to use; they sum to Stats.InputInverters.
	NewInverters int

	// Compound is non-nil for gates realized as multiple dynamic stages
	// joined by a static NAND/NOR output (the paper's solution 7; see
	// CompoundTransform). Nodes still describes the full function.
	Compound *CompoundInfo
}

// Pulldown returns the number of nMOS pulldown transistors.
func (g *Gate) Pulldown() int { return g.Nodes.Transistors() }

// LogicTransistors returns the gate's contribution to the paper's T_logic:
// pulldown + p-clock and keeper per stage + the static output stage (an
// inverter for plain domino, a NAND/NOR for compound gates) + the stage
// feet.
func (g *Gate) LogicTransistors() int { return g.logicTransistors(g.Pulldown()) }

// logicTransistors is LogicTransistors for a gate with the given pulldown
// transistor count.
func (g *Gate) logicTransistors(pulldown int) int {
	if g.Compound == nil {
		n := pulldown + 4
		if g.Footed {
			n++
		}
		return n
	}
	n := pulldown
	n += 2 * len(g.Compound.Stages) // precharge + keeper per stage
	n += 2 * len(g.Compound.Stages) // static NAND/NOR: 2 devices per input
	for _, st := range g.Compound.Stages {
		if st.Footed {
			n++
		}
	}
	return n
}

// ClockTransistors returns the gate's clock-connected devices: one p-clock
// per stage, the stage feet, and one per discharge point (paper table
// III's T_clock).
func (g *Gate) ClockTransistors() int {
	if g.Compound == nil {
		n := 1 + len(g.Discharges)
		if g.Footed {
			n++
		}
		return n
	}
	n := len(g.Compound.Stages) + len(g.Discharges)
	for _, st := range g.Compound.Stages {
		if st.Footed {
			n++
		}
	}
	return n
}

// Stats aggregates the paper's reported metrics over a mapped circuit.
type Stats struct {
	TLogic int // all domino transistors (pulldown, clocks, inverter, keeper)
	TDisch int // p-discharge transistors
	TTotal int // TLogic + TDisch
	Gates  int
	TClock int // clock-connected transistors (p-clock, n-clock, p-discharge)
	Levels int // domino levels on the longest input-to-output path
	// InputInverters counts distinct complemented primary-input literals
	// used. The paper's unate-network model provides both input phases for
	// free (inversions are pushed to the primary inputs); reported for
	// completeness but not included in TLogic.
	InputInverters int
}

func (s Stats) String() string {
	return fmt.Sprintf("Tlogic=%d Tdisch=%d Ttotal=%d gates=%d Tclock=%d levels=%d",
		s.TLogic, s.TDisch, s.TTotal, s.Gates, s.TClock, s.Levels)
}

// Result is a mapped domino circuit.
type Result struct {
	Name      string
	Algorithm string
	Options   Options
	Gates     []*Gate // in topological order (drivers precede users)
	// OutputGate maps each primary-output name to the gate driving it.
	OutputGate map[string]int
	// ConstOutputs lists primary outputs whose function folded to a
	// constant; they are tied to a supply rail, not to a gate.
	ConstOutputs map[string]bool
	// Source is the unate network that was mapped.
	Source *logic.Network
	Stats  Stats
	// Degraded marks a Pareto run whose Options.TupleBudget overflowed:
	// the mapping is complete, functionally correct and audit-clean,
	// but frontier exploration was truncated, so it may be worse than
	// an unbudgeted run. Consumers that promised optimality must check
	// this flag; consumers that need any safe mapping can ignore it.
	Degraded bool
}

// Eval computes all primary-output values for one assignment of
// primary-input values (keyed by input name). Domino gates are
// non-inverting: each gate's output is simply whether its pulldown network
// conducts, because the dynamic node discharges exactly when it does and
// the output inverter restores polarity.
func (r *Result) Eval(inputs map[string]bool) (map[string]bool, error) {
	in := make([]bool, len(r.Source.Inputs))
	for i, id := range r.Source.Inputs {
		name := r.Source.Nodes[id].Name
		v, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("mapper: missing value for input %q", name)
		}
		in[i] = v
	}
	gates := make([]bool, len(r.Gates))
	for i, g := range r.Gates {
		gates[i] = g.Nodes.Conducts(in, gates)
	}
	out := make(map[string]bool, len(r.OutputGate)+len(r.ConstOutputs))
	for name, gid := range r.OutputGate {
		out[name] = gates[gid]
	}
	for name, v := range r.ConstOutputs {
		out[name] = v
	}
	return out, nil
}

// Signal names a pulldown leaf's driver: a gate's output or a primary
// input of Source.
func (r *Result) Signal(n sp.Node) string {
	if g := n.Gate(); g >= 0 {
		return r.Gates[g].Output
	}
	return r.Source.Nodes[r.Source.Inputs[n.Input()]].Name
}

// Expr renders a pulldown span of this result in the paper's expression
// notation (see sp.Tree.String).
func (r *Result) Expr(s sp.Span) string { return s.Tree(r.Signal).String() }

// Dump renders every gate for debugging and golden tests.
func (r *Result) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s mapped by %s: %s\n", r.Name, r.Algorithm, r.Stats)
	for _, g := range r.Gates {
		foot := ""
		if g.Footed {
			foot = " footed"
		}
		kind := ""
		if g.Compound != nil {
			kind = fmt.Sprintf(" compound-%s(%d)", g.Compound.Kind, len(g.Compound.Stages))
		}
		fmt.Fprintf(&b, "  gate %d (%s, level %d%s%s): %s", g.ID, g.Output, g.Level, foot, kind, r.Expr(g.Nodes))
		if len(g.Discharges) > 0 {
			fmt.Fprintf(&b, " [%d discharge]", len(g.Discharges))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// computeStats sums the gates' summaries. Counting from the netlist
// (rather than the DP accumulators) is exact in the presence of
// multi-fanout gates shared between cones.
func (r *Result) computeStats() {
	var s Stats
	for _, g := range r.Gates {
		s.TLogic += g.logicTransistors(g.Transistors)
		s.TDisch += len(g.Discharges)
		s.TClock += g.ClockTransistors()
		s.Gates++
		s.Levels = max(s.Levels, g.Level)
		s.InputInverters += g.NewInverters
	}
	s.TTotal = s.TLogic + s.TDisch
	r.Stats = s
}
