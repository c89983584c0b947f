package mapper

import "soidomino/internal/faultpoint"

// The mapper's declared fault points (see internal/faultpoint). They
// are context-threaded: a run observes only the registry carried by its
// own context, so fault schedules — like the obs collectors — can never
// leak into a result's identity or cache key.
var (
	// PointCombine fires at every DP node boundary, alongside the
	// cancellation checkpoint, before the node's combine sweep.
	PointCombine = faultpoint.Define("mapper.combine",
		"DP node boundary, before the node's combine sweep")
	// PointTraceback fires once at the start of traceback, after the DP
	// tables are complete.
	PointTraceback = faultpoint.Define("mapper.traceback",
		"start of traceback, after the DP completes")
	// PointInvertReorder is a Flip point: when it fires, one combine's
	// SOI stack order is inverted — the operand the rule would put at
	// the bottom goes to the top. The result stays functionally correct
	// and audit-clean (traceback counts discharges from the tree it
	// actually built) but buries parallel sections under series
	// transistors and so carries avoidable discharge devices — the bug
	// class the fuzzer's metamorphic T_disch(SOI) <= T_disch(RS) oracle
	// exists to catch. Armed with Prob 1 it inverts every decision.
	PointInvertReorder = faultpoint.Define("mapper.invert-soi-reorder",
		"flip: invert one SOI stack-reorder decision")
)
