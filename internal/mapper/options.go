// Package mapper implements the paper's three technology mappers for
// domino logic:
//
//   - DominoMap: the bulk-CMOS baseline (Zhao–Sapatnekar ICCAD '98 dynamic
//     programming) that ignores the Parasitic Bipolar Effect; p-discharge
//     transistors are inserted by a post-processing pass.
//   - RSMap: DominoMap plus the Rearrange_Stacks post-processing step that
//     reorders series stacks to move parallel sections toward ground before
//     inserting discharges (paper §VI-A).
//   - SOIDominoMap: the paper's contribution (§V): the DP cost includes
//     the discharge transistors implied by each partial structure, series
//     stacks are ordered during combination using par_b and p_dis, and
//     ties are broken by p_dis.
//
// All three accept a unate network (2-input AND/OR gates, inverters only
// directly on primary inputs; see internal/unate) and produce a gate-level
// domino netlist of series-parallel pulldown trees with discharge devices
// attached, ready for transistor-level realization.
package mapper

import "fmt"

// Objective selects the cost the mapper minimizes.
type Objective uint8

const (
	// Area minimizes the total transistor count (paper tables I-III).
	Area Objective = iota
	// Depth minimizes the number of domino levels from inputs to outputs,
	// the paper's delay approximation (table IV).
	Depth
)

func (o Objective) String() string {
	if o == Depth {
		return "depth"
	}
	return "area"
}

// StackOrder selects how the PBE-blind mappers (DominoMap, RSMap) order
// series stacks, a choice they make without regard to discharge points.
type StackOrder uint8

const (
	// OrderSource stacks the first operand on top, following the source
	// network's operand order (the paper's figures are drawn this way).
	OrderSource StackOrder = iota
	// OrderHashed picks a deterministic pseudorandom order per
	// combination. Real netlists reach the mapper with arbitrary operand
	// order, so a PBE-blind baseline lands parallel stacks on the ground
	// side only about half the time; the experiment harness uses this
	// mode so the baseline is neither systematically lucky nor unlucky.
	OrderHashed
)

// Options configures a mapping run. The zero value is not valid; use
// DefaultOptions or fill every field.
type Options struct {
	// MaxWidth and MaxHeight bound the pulldown network of a single gate.
	// The paper uses 5 and 8 for SOI (§VI).
	MaxWidth, MaxHeight int
	// Objective is the cost to minimize.
	Objective Objective
	// ClockWeight is the paper's k: clock-driven transistors (p-clock,
	// n-clock and p-discharge) cost k times a regular transistor under the
	// area objective (table III). Must be >= 1.
	ClockWeight int
	// DepthWeight trades one domino level against discharge transistors
	// under the depth objective. The paper calls the cost "a combination
	// of delay and number of discharge transistors" without giving the
	// weight; the value used is recorded in EXPERIMENTS.md.
	DepthWeight int
	// AlwaysFooted forces an n-clock foot on every gate (the flat "+5"
	// overhead of the paper's listing 1) instead of footing only gates
	// with primary-input-driven pulldown transistors (listing 2).
	AlwaysFooted bool
	// BaselineStackOrder controls series-stack order in the PBE-blind
	// mappers; SOIDominoMap ignores it (it orders stacks by par_b/p_dis).
	BaselineStackOrder StackOrder
	// Pareto enables the frontier extension of SOIDominoMap: instead of
	// the paper's single best tuple per {W,H} (ties broken by p_dis), the
	// DP keeps every (cost, p_dis, p_dis_bot, depth)-incomparable
	// sub-solution and considers both series orders at every AND. This
	// closes the heuristic gap of the paper's tie-breaking (the
	// brute-force optimality tests pin it) at a modest runtime cost.
	// Ignored by the PBE-blind mappers, whose scalar cost makes the
	// frontier collapse to the single best tuple anyway.
	Pareto bool
	// TupleBudget bounds the cumulative number of tuples the Pareto DP
	// keeps across all frontiers of one run (0 = unlimited). When the
	// budget overflows, the run degrades gracefully instead of failing
	// or exhausting memory: from that node on each frontier is trimmed
	// to the single best tuple per {W,H,par_b,has_PI} shape — the
	// paper's own heuristic — and the finished Result is flagged
	// Degraded. Ignored outside Pareto mode (the single-tuple tables
	// are bounded by construction).
	TupleBudget int
	// Workers bounds the goroutines of the dynamic program. 0 picks
	// GOMAXPROCS (with a small-network cutoff where the pool would cost
	// more than it saves); 1 forces the sequential engine; values above 1
	// run the readiness-scheduled parallel engine with exactly that many
	// workers. The engines are byte-identical by contract — every result,
	// gate, stat counter and trace span is independent of Workers — which
	// is why Workers is deliberately excluded from the service cache key
	// (internal/service.encodeOptions) and from the encoded OptionsJSON:
	// it shapes throughput, never the answer.
	Workers int
	// StrashOff disables the structural-hashing + DCE canonicalization
	// front-end (internal/strash) that otherwise runs before decompose.
	// The mapper engines themselves never read it — they consume the
	// already-prepared unate network — but the pipeline
	// (report.PrepareNetworkMode) and the service do, and it is
	// semantic: strash changes fanout counts and operand order, so the
	// mapped result may differ (while staying equivalent). It therefore
	// participates in the service cache key, unlike Workers.
	StrashOff bool
	// SequenceAware enables the paper's §VII future-work refinement:
	// after mapping, discharge points whose PBE charging scenario is
	// unsatisfiable (the required input cube contains a literal and its
	// complement, as in multiplexer and XOR stacks) are pruned
	// (pbe.PruneUnexcitable). The switch-level simulator independently
	// validates the pruning's soundness.
	SequenceAware bool
}

// DefaultOptions returns the paper's evaluation configuration: W<=5, H<=8,
// area objective, unweighted clock transistors.
func DefaultOptions() Options {
	return Options{
		MaxWidth:    5,
		MaxHeight:   8,
		Objective:   Area,
		ClockWeight: 1,
		DepthWeight: 8,
	}
}

// MaxShape caps MaxWidth and MaxHeight. The DP keeps a dense scratch
// table of MaxWidth×MaxHeight slots per worker, so the cap bounds what
// one request can make it allocate; the paper's SOI bounds are 5×8.
const MaxShape = 64

// Validate reports the first out-of-range option, so a caller can reject
// a request before queueing it; every mapper run validates again.
func (o Options) Validate() error {
	if o.MaxWidth < 2 || o.MaxHeight < 2 || o.MaxWidth > MaxShape || o.MaxHeight > MaxShape {
		return fmt.Errorf("mapper: MaxWidth/MaxHeight must be in [2, %d] (got %d, %d)",
			MaxShape, o.MaxWidth, o.MaxHeight)
	}
	if o.ClockWeight < 1 {
		return fmt.Errorf("mapper: ClockWeight must be >= 1 (got %d)", o.ClockWeight)
	}
	if o.Objective == Depth && o.DepthWeight < 1 {
		return fmt.Errorf("mapper: DepthWeight must be >= 1 (got %d)", o.DepthWeight)
	}
	if o.TupleBudget < 0 {
		return fmt.Errorf("mapper: TupleBudget must be >= 0 (got %d)", o.TupleBudget)
	}
	if o.Workers < 0 {
		return fmt.Errorf("mapper: Workers must be >= 0 (got %d)", o.Workers)
	}
	return nil
}

// rearrangeMode selects the RS_Map post-processing strength.
type rearrangeMode uint8

const (
	rearrangeNone rearrangeMode = iota
	rearrangeTop                // paper's RS_Map: the gate's ground-side series stack
	rearrangeDeep               // extension: every series group, including branch-internal
)

// config is an Options plus the per-algorithm behaviour switches.
type config struct {
	Options
	algorithm       string
	trackDischarges bool // include materialized discharges in the DP cost
	reorderStacks   bool // order series stacks by par_b/p_dis at combine time
	rearrangePost   rearrangeMode
}
