// Package obs is the observability layer of the mapping stack: a per-run
// dynamic-programming statistics collector (Stats), a sampling span tracer
// that emits Chrome trace-event JSON loadable in Perfetto (Tracer), a
// minimal Prometheus text-exposition writer (PromWriter) and the build
// information surfaced by soimapd's /healthz and `soimap -version`.
//
// Everything here is opt-in and allocation-light. The collectors ride
// through a context.Context (WithStats, WithTracer); producers hold plain
// pointers and every recording method is safe on a nil receiver, so the
// disabled path costs one predictable branch and no allocation — see the
// "zero cost when disabled" note in DESIGN.md and the env-gated
// TestStatsOverhead guard wired into `make check`.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// PhaseTimes records the monotonic wall-clock cost of the pipeline
// phases around one mapping run. Strash, Decompose and Unate are filled
// by report.PrepareNetworkContext; DP and Traceback by the mapper engine.
type PhaseTimes struct {
	Strash    time.Duration `json:"strash"`
	Decompose time.Duration `json:"decompose"`
	Unate     time.Duration `json:"unate"`
	DP        time.Duration `json:"dp"`
	Traceback time.Duration `json:"traceback"`
	Audit     time.Duration `json:"audit"`
}

// Stats is the per-run instrumentation record of one mapping run. The
// fields are plain integers written from a single goroutine: concurrent
// runs must each carry their own Stats, and the parallel DP engine gives
// each worker a private shard, merged with Merge after the pool drains
// (every counter is commutative and the high-water mark is a max, so the
// merged totals equal a sequential run's). All recording methods are
// nil-receiver safe: a nil *Stats is the disabled collector.
type Stats struct {
	// Algorithm is the engine's name for the run (e.g. "SOI_Domino_Map").
	Algorithm string `json:"algorithm,omitempty"`
	// Nodes counts And/Or nodes processed by the DP loop.
	Nodes int64 `json:"nodes"`
	// TuplesGenerated counts every tuple produced by a combine call;
	// TuplesKept is the number surviving in the node's table or frontier
	// when the node completes, and TuplesPruned is the difference —
	// bounds-rejected, dominated, or displaced by a better tuple.
	TuplesGenerated int64 `json:"tuples_generated"`
	TuplesPruned    int64 `json:"tuples_pruned"`
	TuplesKept      int64 `json:"tuples_kept"`
	// Combine calls by kind. An AND whose stack kept the source operand
	// order counts as ordered; a flipped stack counts as reordered (the
	// SOI par_b/p_dis ordering, the hashed baseline order, or the Pareto
	// mode's exploration of the second order).
	CombineOr           int64 `json:"combine_or"`
	CombineAndOrdered   int64 `json:"combine_and_ordered"`
	CombineAndReordered int64 `json:"combine_and_reordered"`
	// FrontierHighWater is the largest tuple population any single node
	// held (table entries, or frontier entries across all Pareto states).
	FrontierHighWater int64 `json:"frontier_high_water"`
	// DPDischargeCharges counts p-discharge devices charged while
	// evaluating AND combinations (a series composition burying a
	// parallel bottom materializes its potential points plus the new
	// junction). Candidates later pruned still count: this measures DP
	// work, not the final netlist — the mapped circuit's discharge count
	// is Result.Stats.TDisch.
	DPDischargeCharges int64 `json:"dp_discharge_charges"`
	// CancelChecks counts context cancellation checkpoints observed.
	CancelChecks int64 `json:"cancel_checks"`
	// Strash front-end reductions (internal/strash), recorded by the
	// pipeline before decompose: gate nodes hash-consed onto an existing
	// structural twin, nodes simplified away by constant folding /
	// buffer collapse / double negation, and nodes removed by the DCE
	// sweep because no primary output reaches them.
	StrashMerged int64 `json:"strash_merged"`
	StrashFolded int64 `json:"strash_folded"`
	StrashDead   int64 `json:"strash_dead"`

	Phases PhaseTimes `json:"phases"`
}

// Enabled reports whether the collector records anything.
func (s *Stats) Enabled() bool { return s != nil }

// AddNode records one DP node with its surviving tuple population.
func (s *Stats) AddNode(kept int) {
	if s == nil {
		return
	}
	s.Nodes++
	s.TuplesKept += int64(kept)
	s.FrontierHighWater = max(s.FrontierHighWater, int64(kept))
	s.TuplesPruned = s.TuplesGenerated - s.TuplesKept
}

// AddCombine records one combine call. or selects the OR kind; reordered
// marks a series stack flipped from source-operand order; charges is the
// number of p-discharge devices the combination materialized.
func (s *Stats) AddCombine(or, reordered bool, charges int) {
	if s == nil {
		return
	}
	s.TuplesGenerated++
	switch {
	case or:
		s.CombineOr++
	case reordered:
		s.CombineAndReordered++
	default:
		s.CombineAndOrdered++
	}
	s.DPDischargeCharges += int64(charges)
}

// AddStrash records one strash front-end run's reduction counters.
func (s *Stats) AddStrash(merged, folded, dead int) {
	if s == nil {
		return
	}
	s.StrashMerged += int64(merged)
	s.StrashFolded += int64(folded)
	s.StrashDead += int64(dead)
}

// AddCancelCheck records one observed cancellation checkpoint.
func (s *Stats) AddCancelCheck() {
	if s == nil {
		return
	}
	s.CancelChecks++
}

// SetAlgorithm records the engine's algorithm name.
func (s *Stats) SetAlgorithm(name string) {
	if s == nil {
		return
	}
	s.Algorithm = name
}

// AddPhase accumulates one phase's wall-clock cost.
func (s *Stats) AddPhase(phase Phase, d time.Duration) {
	if s == nil {
		return
	}
	switch phase {
	case PhaseStrash:
		s.Phases.Strash += d
	case PhaseDecompose:
		s.Phases.Decompose += d
	case PhaseUnate:
		s.Phases.Unate += d
	case PhaseDP:
		s.Phases.DP += d
	case PhaseTraceback:
		s.Phases.Traceback += d
	case PhaseAudit:
		s.Phases.Audit += d
	}
}

// Merge adds o's counters and phase times into s (phase times add; the
// high-water mark takes the max). Used by soimapd to aggregate per-job
// runs into the per-algorithm totals served at /metrics.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.Nodes += o.Nodes
	s.TuplesGenerated += o.TuplesGenerated
	s.TuplesPruned += o.TuplesPruned
	s.TuplesKept += o.TuplesKept
	s.CombineOr += o.CombineOr
	s.CombineAndOrdered += o.CombineAndOrdered
	s.CombineAndReordered += o.CombineAndReordered
	s.FrontierHighWater = max(s.FrontierHighWater, o.FrontierHighWater)
	s.DPDischargeCharges += o.DPDischargeCharges
	s.CancelChecks += o.CancelChecks
	s.StrashMerged += o.StrashMerged
	s.StrashFolded += o.StrashFolded
	s.StrashDead += o.StrashDead
	s.Phases.Strash += o.Phases.Strash
	s.Phases.Decompose += o.Phases.Decompose
	s.Phases.Unate += o.Phases.Unate
	s.Phases.DP += o.Phases.DP
	s.Phases.Traceback += o.Phases.Traceback
	s.Phases.Audit += o.Phases.Audit
}

// String renders the collector as the multi-line block `soimap -stats`
// prints.
func (s *Stats) String() string {
	if s == nil {
		return "stats: disabled"
	}
	var b strings.Builder
	if s.Algorithm != "" {
		fmt.Fprintf(&b, "stats (%s):\n", s.Algorithm)
	} else {
		b.WriteString("stats:\n")
	}
	fmt.Fprintf(&b, "  nodes            %d\n", s.Nodes)
	fmt.Fprintf(&b, "  tuples           %d generated, %d pruned, %d kept (high water %d/node)\n",
		s.TuplesGenerated, s.TuplesPruned, s.TuplesKept, s.FrontierHighWater)
	fmt.Fprintf(&b, "  combines         %d or, %d and-ordered, %d and-reordered\n",
		s.CombineOr, s.CombineAndOrdered, s.CombineAndReordered)
	fmt.Fprintf(&b, "  dp discharges    %d charged during combine evaluation\n", s.DPDischargeCharges)
	fmt.Fprintf(&b, "  cancel checks    %d\n", s.CancelChecks)
	fmt.Fprintf(&b, "  strash           %d merged, %d folded, %d dead removed\n",
		s.StrashMerged, s.StrashFolded, s.StrashDead)
	fmt.Fprintf(&b, "  phases           strash %v, decompose %v, unate %v, dp %v, traceback %v, audit %v",
		s.Phases.Strash.Round(time.Microsecond),
		s.Phases.Decompose.Round(time.Microsecond), s.Phases.Unate.Round(time.Microsecond),
		s.Phases.DP.Round(time.Microsecond), s.Phases.Traceback.Round(time.Microsecond),
		s.Phases.Audit.Round(time.Microsecond))
	return b.String()
}

// Timed runs f, charging its wall-clock cost to the stats phase. With a
// nil collector it calls f directly — no clock reads on the disabled
// path.
func Timed(s *Stats, p Phase, f func() error) error {
	if s == nil {
		return f()
	}
	start := time.Now()
	err := f()
	s.AddPhase(p, time.Since(start))
	return err
}

// Phase names one pipeline phase for AddPhase and trace spans.
type Phase uint8

const (
	PhaseDecompose Phase = iota
	PhaseUnate
	PhaseDP
	PhaseTraceback
	PhaseStrash
	PhaseAudit
)

func (p Phase) String() string {
	switch p {
	case PhaseStrash:
		return "strash"
	case PhaseAudit:
		return "audit"
	case PhaseDecompose:
		return "decompose"
	case PhaseUnate:
		return "unate"
	case PhaseDP:
		return "dp"
	default:
		return "traceback"
	}
}
