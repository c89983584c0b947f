package mapper

import (
	"context"
	"fmt"
	"time"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/tuple"
	"soidomino/internal/unate"
)

// DominoMap runs the bulk-CMOS baseline: the dynamic program minimizes the
// objective without regard to discharge transistors; series stacks keep
// their natural (first-fanin-on-top) order; p-discharge devices go where
// the discharge pass over the finished gates finds them (pbe.Discharges).
func DominoMap(n *logic.Network, opt Options) (*Result, error) {
	return DominoMapContext(context.Background(), n, opt)
}

// DominoMapContext is DominoMap with cancellation: the run observes ctx at
// node-processing checkpoints and returns ctx.Err() if it is canceled or
// its deadline passes before the dynamic program completes.
func DominoMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return run(ctx, n, dominoMap, opt, nil)
}

// RSMap is DominoMap with the Rearrange_Stacks step (paper §VI-A) in its
// discharge pass: each finished gate's ground-side series stack is
// reordered to move parallel sections with many potential discharge
// points toward ground before its discharges are placed. Its result is
// Rearrange of DominoMap's.
func RSMap(n *logic.Network, opt Options) (*Result, error) {
	return RSMapContext(context.Background(), n, opt)
}

// RSMapContext is RSMap with cancellation (see DominoMapContext). The
// Domino_Map DP runs under the RS_Map name (obs.Stats, spans), and the
// discharge pass, reordering included, is timed as part of traceback.
func RSMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return rsMapRun(ctx, n, opt, false)
}

// RSMapDeepContext is an extension of RSMap whose pass reorders
// every series group, including those nested inside parallel branches —
// stronger than the paper's RS_Map but still a pure post-process. The
// ablation benchmarks compare all three. Cancellation as in
// DominoMapContext.
func RSMapDeepContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return rsMapRun(ctx, n, opt, true)
}

// rsMapRun is RSMapContext, or RSMapDeepContext when deep.
func rsMapRun(ctx context.Context, n *logic.Network, opt Options, deep bool) (*Result, error) {
	cfg := dominoMap
	cfg.algorithm = rsName(deep)
	return run(ctx, n, cfg, opt, rsOrder(deep))
}

// SOIDominoMap runs the paper's algorithm (§V, listing 2): discharge
// transistors are part of the DP cost, series stacks are ordered at
// combine time using par_b and p_dis, and cost ties are broken by p_dis.
func SOIDominoMap(n *logic.Network, opt Options) (*Result, error) {
	return SOIDominoMapContext(context.Background(), n, opt)
}

// SOIDominoMapContext is SOIDominoMap with cancellation (see
// DominoMapContext).
func SOIDominoMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return run(ctx, n, soiMap, opt, nil)
}

// run maps n with mapper m under opt, validated and then reduced to the
// options m reads (canonical), so the engine and the Result's options
// echo never carry a field the run ignores. A non-nil reorder is
// applied to every traced gate by the discharge pass (see traceback).
func run(ctx context.Context, n *logic.Network, m config, opt Options, reorder stackOrder) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return m.with(m.canonical(opt)).run(ctx, n, reorder)
}

// run maps n under cfg, whose options are valid.
func (cfg config) run(ctx context.Context, n *logic.Network, reorder stackOrder) (*Result, error) {
	if err := unate.IsUnate(n); err != nil {
		return nil, fmt.Errorf("mapper: input network is not unate: %w", err)
	}
	e := newEngine(ctx, n, cfg)
	defer e.release()
	e.stats.SetAlgorithm(cfg.algorithm)
	if e.hub != nil {
		name := "run " + cfg.algorithm
		if id := obs.RequestID(ctx); id != "" {
			name += " request " + id
		}
		e.hub.Record(e.tc, "mapper", name, time.Now(), 0, obs.KV{Key: "nodes", Val: int64(n.Len())})
	}
	if err := obs.RunPhase(ctx, obs.PhaseDP, "mapper", cfg.algorithm+" dp", e.process); err != nil {
		return nil, err
	}
	var res *Result
	err := obs.RunPhase(ctx, obs.PhaseTraceback, "mapper", cfg.algorithm+" traceback", func() error {
		if ferr := e.faults.Check(ctx, PointTraceback); ferr != nil {
			return fmt.Errorf("mapper: %s traceback: %w", cfg.algorithm, ferr)
		}
		var terr error
		res, terr = e.traceback(reorder)
		return terr
	})
	if err != nil {
		return nil, err
	}
	res.Degraded = e.degraded
	return res, nil
}

// newEngine sets up the DP state of one run over a unate network whose
// options are already validated, on a workspace taken from the pool;
// release gives it back. Every mapping leaf gets its single {1,1}
// candidate up front, so a parent reads a leaf fanin like any completed
// node.
func newEngine(ctx context.Context, n *logic.Network, cfg config) *engine {
	ws := takeWorkspace(n)
	e := &engine{
		ctx:     ctx,
		cfg:     cfg,
		net:     n,
		stats:   obs.StatsFrom(ctx),
		faults:  faultpoint.From(ctx),
		ws:      ws,
		fanout:  ws.fanout,
		outRefs: ws.outRefs,
		cands:   ws.cands,
		gate:    ws.gate,
		slots:   ws.table(cfg),
		w:       weights(cfg),
	}
	e.hub, e.tc = obs.TracingFrom(ctx)
	// Every leaf shares one read-only slice: the {1,1} tuple carries no
	// node id, the Choice that addresses it does.
	leaf := ws.leaf[:]
	for id := range n.Nodes {
		if e.isLeaf(id) {
			e.cands[id] = leaf
		}
	}
	return e
}

// release gives the engine's workspace back to the pool once the run,
// traceback included, is done with it; the engine must not be used
// after.
func (e *engine) release() {
	if e.ws != nil {
		workspaces.Put(e.ws)
		e.ws = nil
	}
}

// engine holds the dynamic-programming state for one mapping run.
type engine struct {
	ctx     context.Context
	cfg     config
	net     *logic.Network
	fanout  []int
	outRefs []int
	// stats and hub are the run's observability hooks, both nil when
	// the context carries no collector or no sampled trace; the nil path
	// is a single branch per recording site (see internal/obs). The
	// hub's spans record under tc. faults follows the same contract for
	// the run's fault-injection registry.
	stats  *obs.Stats
	hub    *obs.TraceHub
	tc     obs.TraceContext
	faults *faultpoint.Registry

	// keptTuples and degraded implement the Pareto tuple budget: when
	// the cumulative frontier population exceeds Options.TupleBudget,
	// the run keeps going but every frontier from that node on is
	// trimmed to one tuple per shape, and the result is flagged
	// Degraded instead of the process OOMing on a pathological input.
	keptTuples int
	degraded   bool

	// cands[id] is node id's candidate slice: what a parent may draw from
	// it, in deterministic order, addressed by tuple.Choice{id, index}.
	// A leaf's is its single {1,1} transistor. An And/Or node's is
	// written once, when the node completes: its table tuples in slot
	// order, then the gate-as-input candidate — only the latter for a
	// forced root. nil means the node has no solution yet.
	cands [][]tuple.Tuple
	// gate[id] is the table tuple an And/Or node's gate is formed from.
	gate []tuple.Tuple

	// ws is the pooled workspace the slices above and slots live in.
	ws *workspace
	// slots is the dense scratch table, reused for every node; arena is
	// the tail of the current chunk of candidate storage, which completed
	// nodes' slices are carved from, and chunk the number of ws.chunks
	// taken so far; combines counts the node's combinations for the
	// cancellation checkpoint.
	slots    *tuple.Slots
	arena    []tuple.Tuple
	chunk    int
	combines int

	// w is the configured objective as a linear cost (see weights).
	w tuple.Weights
}

// weights turns the configured objective into the scalar the DP
// minimizes. The area objective counts transistors, clock-driven ones
// (p-discharge devices included) k times; the depth objective counts
// domino levels DepthWeight times plus one per discharge device. The
// PBE-blind mappers leave discharge devices out of either cost.
func weights(cfg config) tuple.Weights {
	var w tuple.Weights
	if cfg.Objective == Depth {
		w.Depth = cfg.DepthWeight
		if cfg.pbeAware {
			w.Disch = 1
		}
		return w
	}
	w.Trans, w.Clock = 1, cfg.ClockWeight
	if cfg.pbeAware {
		w.Disch = cfg.ClockWeight
	}
	return w
}

// less orders tuples for table insertion and gate formation. The SOI
// algorithm breaks cost ties by p_dis (listing 2); the bulk baseline is
// PBE-blind, so its fallback chain never consults p_dis or discharge
// counts. The remaining fallbacks only serve determinism.
func (e *engine) less(a, b tuple.Tuple) bool {
	if ca, cb := e.w.Cost(&a), e.w.Cost(&b); ca != cb {
		return ca < cb
	}
	if e.cfg.pbeAware {
		if a.PDis != b.PDis {
			return a.PDis < b.PDis
		}
		if a.NDisch != b.NDisch {
			return a.NDisch < b.NDisch
		}
	}
	if da, db := a.NTrans+a.NClock, b.NTrans+b.NClock; da != db {
		return da < db
	}
	if a.NGates != b.NGates {
		return a.NGates < b.NGates
	}
	return a.Depth < b.Depth
}

// form converts a partial structure into a completed gate's cumulative
// totals: output inverter (2) and keeper join NTrans, the p-clock (plus an
// n-clock foot for PI-driven pulldowns) joins NClock, and the structure's
// potential discharge points vanish because its bottom is grounded.
func (e *engine) form(t tuple.Tuple) tuple.Tuple {
	g := t
	g.NTrans += 3
	g.NClock++
	if t.HasPI || e.cfg.AlwaysFooted {
		g.NClock++
	}
	g.NGates++
	g.Depth++
	g.PDis = 0
	g.PDisBot = 0
	g.ParB = false
	return g
}

// isLeaf reports whether the node is a mapping leaf (primary input or
// complemented primary-input literal).
func (e *engine) isLeaf(id int) bool {
	return unate.IsLeaf(e.net, id)
}

// forcedRoot reports whether an And/Or node must become a gate root: it
// feeds more than one gate or drives a primary output, so parents may only
// use its completed gate output (standard tree-decomposition mapping; the
// paper is silent on multi-fanout handling).
func (e *engine) forcedRoot(id int) bool {
	return e.fanout[id] > 1 || e.outRefs[id] > 0
}

// gateAsInput is the {1,1} sub-solution that uses the child's completed
// gate output — f, its gate tuple formed — to drive a single transistor
// ("an extra transistor is needed in the next level", paper §IV). For
// forced roots the child's gate exists regardless of this parent's
// choice, so only the marginal transistor is charged; for single-fanout
// children the full gate cost rides along so the DP can trade early gate
// formation against larger pulldowns.
func (e *engine) gateAsInput(id int, f *tuple.Tuple) tuple.Tuple {
	t := tuple.Tuple{
		W: 1, H: 1,
		NTrans: 1,
		Depth:  f.Depth,
		Deriv:  tuple.Deriv{Op: tuple.DerivGateInput},
	}
	if !e.forcedRoot(id) {
		t.NTrans += f.NTrans
		t.NClock = f.NClock
		t.NDisch = f.NDisch
		t.NGates = f.NGates
	}
	return t
}

// cand is one combine operand: a fanin's candidate and its address.
type cand struct {
	t  *tuple.Tuple
	ch tuple.Choice
}

// usable returns the candidate slice a parent draws from child id.
func (e *engine) usable(id int) ([]tuple.Tuple, error) {
	if c := e.cands[id]; c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("mapper: node %d (%s) is not mappable", id, e.net.Nodes[id].Op)
}

// combineOr implements the paper's combine_or: widths add, heights max,
// costs and p_dis add, par_b becomes true.
func (e *engine) combineOr(a, b cand) tuple.Tuple {
	return tuple.Tuple{
		W:        a.t.W + b.t.W,
		H:        max(a.t.H, b.t.H),
		NTrans:   a.t.NTrans + b.t.NTrans,
		NClock:   a.t.NClock + b.t.NClock,
		NDisch:   a.t.NDisch + b.t.NDisch,
		OwnDisch: a.t.OwnDisch + b.t.OwnDisch,
		NGates:   a.t.NGates + b.t.NGates,
		Depth:    max(a.t.Depth, b.t.Depth),
		PDis:     a.t.PDis + b.t.PDis,
		// The whole result is one parallel stack, so every potential point
		// belongs to the bottom-most parallel element.
		PDisBot: a.t.PDis + b.t.PDis,
		ParB:    true,
		HasPI:   a.t.HasPI || b.t.HasPI,
		Deriv:   tuple.Deriv{Op: tuple.DerivOr, A: a.ch, B: b.ch},
	}
}

// order is the stack order of the paper's combine_and, reporting whether
// a goes on top. With pbeAware it is chosen from par_b and p_dis: a
// parallel-at-bottom input goes to the bottom (it may reach ground); if
// both or neither qualify, the larger p_dis goes to the bottom. The
// PBE-blind mappers keep source order (first operand on top) or, under
// OrderHashed, a pseudorandom one. The Pareto mode does not ask: it
// emits both orders and lets dominance decide.
func (e *engine) order(a, b cand) bool {
	topIsA := true // source order: first operand on top
	switch {
	case e.cfg.pbeAware:
		switch {
		case a.t.ParB && !b.t.ParB:
			topIsA = false // a goes to the bottom
		case b.t.ParB && !a.t.ParB:
			topIsA = true
		default:
			topIsA = a.t.PDis <= b.t.PDis // larger p_dis to the bottom
		}
		if e.faults.Flip(PointInvertReorder) {
			topIsA = !topIsA // test-only fault injection; see fault.go
		}
	case e.cfg.BaselineStackOrder == OrderHashed:
		topIsA = mixChoices(a, b)&1 == 0
	}
	return topIsA
}

// combineAnd implements the paper's combine_and with the stack order
// fixed by the caller. If the top has a parallel bottom, its potential
// points plus the new junction are discharged immediately (andCharges);
// otherwise the junction joins the potential set.
func (e *engine) combineAnd(a, b cand, topIsA bool) tuple.Tuple {
	top, bottom := a.t, b.t
	if !topIsA {
		top, bottom = b.t, a.t
	}
	t := tuple.Tuple{
		W:        max(a.t.W, b.t.W),
		H:        a.t.H + b.t.H,
		NTrans:   a.t.NTrans + b.t.NTrans,
		NClock:   a.t.NClock + b.t.NClock,
		NDisch:   a.t.NDisch + b.t.NDisch,
		OwnDisch: a.t.OwnDisch + b.t.OwnDisch,
		NGates:   a.t.NGates + b.t.NGates,
		Depth:    max(a.t.Depth, b.t.Depth),
		ParB:     bottom.ParB,
		HasPI:    a.t.HasPI || b.t.HasPI,
		Deriv:    tuple.Deriv{Op: tuple.DerivAnd, A: a.ch, B: b.ch, TopIsA: topIsA},
	}
	if c := andCharges(top); c > 0 {
		// The top's bottom-most parallel stack can never reach ground: its
		// potential points and its bottom common node (the new junction)
		// materialize as discharges. Potential points the top holds below
		// non-parallel elements stay potential: they only ever materialize
		// through an enclosing parallel branch.
		t.NDisch += c
		t.OwnDisch += c
		t.PDis = (top.PDis - top.PDisBot) + bottom.PDis
	} else {
		t.PDis = top.PDis + bottom.PDis + 1
	}
	t.PDisBot = bottom.PDisBot
	return t
}

// andCharges is the number of p-discharge devices a series composition
// materializes with top on top: the top's bottom-most parallel stack's
// potential points plus the new junction, or none when the top has no
// parallel bottom.
func andCharges(top *tuple.Tuple) int32 {
	if top.ParB {
		return top.PDisBot + 1
	}
	return 0
}

// combineCheckInterval bounds the work between in-loop cancellation
// checkpoints: the context is polled once for every this many
// combinations a node's cross-product crosses, checked at the end of
// each row (one candidate of the first fanin against all of the
// second's), so a node with a huge Pareto cross-product cannot overrun a
// job deadline by more than this many combinations plus one row. The
// per-node count resets at every node boundary, which keeps the
// CancelChecks stat a pure function of the network and options.
const combineCheckInterval = 1024

// arenaChunk caps the size, in tuples, of one candidate-storage chunk;
// chunks start small and double so a tiny network allocates little, and
// they stay in the pooled workspace, so a warm run allocates none.
const arenaChunk = 4096

// process fills the DP tables (paper listing 2): one topological pass
// over the network, mapping every node after its fanins.
func (e *engine) process() error {
	for id := range e.net.Nodes {
		if err := e.processNode(id); err != nil {
			return err
		}
	}
	return nil
}

// processNode maps one node. Every node boundary is a cancellation
// checkpoint: a canceled or expired context aborts the run with
// ctx.Err() instead of finishing the DP; combineCheck adds bounded
// in-loop checkpoints inside large cross-products.
func (e *engine) processNode(id int) error {
	e.stats.AddCancelCheck()
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled at node %d of %d: %w",
			e.cfg.algorithm, id, e.net.Len(), err)
	}
	if err := e.faults.Check(e.ctx, PointCombine); err != nil {
		return fmt.Errorf("mapper: %s at node %d: %w", e.cfg.algorithm, id, err)
	}
	e.combines = 0
	node := &e.net.Nodes[id]
	switch node.Op {
	case logic.Input, logic.Not:
		// Leaves: their candidate slice is set up by newEngine.
	case logic.Const0, logic.Const1:
		if e.fanout[id] > 0 {
			return fmt.Errorf("mapper: constant node %d feeds gates; fold constants before mapping", id)
		}
	case logic.And, logic.Or:
		traced := e.hub.SampleNode(id)
		var nodeStart time.Time
		if traced {
			nodeStart = time.Now()
		}
		ua, err := e.usable(node.Fanin[0])
		if err != nil {
			return err
		}
		ub, err := e.usable(node.Fanin[1])
		if err != nil {
			return err
		}
		if err := e.combineAll(id, node, ua, ub); err != nil {
			return err
		}
		kept, err := e.complete(id)
		if err != nil {
			return err
		}
		e.stats.AddNode(kept)
		if traced {
			e.hub.Record(e.tc, "dp", fmt.Sprintf("node %d %s", id, node.Op), nodeStart, time.Since(nodeStart),
				obs.KV{Key: "cands_a", Val: int64(len(ua))},
				obs.KV{Key: "cands_b", Val: int64(len(ub))},
				obs.KV{Key: "kept", Val: int64(kept)})
		}
	default:
		return fmt.Errorf("mapper: node %d has unsupported op %s", id, node.Op)
	}
	return nil
}

// combineAll fills the slot table with every combination of the
// two fanins' candidates: one tuple per shape in the paper's mode, a
// frontier per state in Pareto mode, where a series composition is
// tried in both stack orders and dominance decides.
//
// A combination whose shape would exceed MaxWidth×MaxHeight is never
// built (overBound): a rejected pair costs one compare. The run's stats
// still count every combination, built or not, but they are added up
// per row and flushed once per node (a node canceled mid-way flushes
// the rows it finished): only a single-tuple AND, whose
// stack order varies pair by pair, is counted per pair, and it still
// takes that order (order: the PointInvertReorder flip, the OrderHashed
// hash) for a pair the check rejects. Every other kind has a closed
// form: an OR row adds one OR per pair; a Pareto AND row adds one
// combination per pair in source order, charging andCharges of the
// row's candidate for each, and one flipped, charging the sum of
// andCharges over the second fanin. So counters, checkpoints and fault
// decisions do not depend on the check.
func (e *engine) combineAll(id int, node *logic.Node, ua, ub []tuple.Tuple) error {
	fa, fb := int32(node.Fanin[0]), int32(node.Fanin[1])
	or := node.Op == logic.Or
	pareto := e.cfg.Pareto
	perRow, sumB := len(ub), 0 // combinations per row; Σ andCharges(b)
	if pareto && !or {
		perRow *= 2
		for j := range ub {
			sumB += int(andCharges(&ub[j]))
		}
	}
	var ors, ordered, reordered, charges int
	for i := range ua {
		a := cand{&ua[i], tuple.Choice{Node: fa, Index: int32(i)}}
		for j := range ub {
			b := cand{&ub[j], tuple.Choice{Node: fb, Index: int32(j)}}
			topIsA := true
			if !or && !pareto {
				if topIsA = e.order(a, b); topIsA {
					ordered++
					charges += int(andCharges(a.t))
				} else {
					reordered++
					charges += int(andCharges(b.t))
				}
			}
			if e.overBound(or, a.t, b.t) {
				continue
			}
			switch {
			case or && pareto:
				e.slots.InsertPareto(e.combineOr(a, b), e.w)
			case or:
				e.slots.Insert(e.combineOr(a, b), e.less)
			case pareto:
				e.slots.InsertPareto(e.combineAnd(a, b, true), e.w)
				e.slots.InsertPareto(e.combineAnd(a, b, false), e.w)
			default:
				e.slots.Insert(e.combineAnd(a, b, topIsA), e.less)
			}
		}
		switch {
		case or:
			ors += len(ub)
		case pareto:
			ordered += len(ub)
			reordered += len(ub)
			charges += len(ub)*int(andCharges(a.t)) + sumB
		}
		if err := e.combineCheck(id, perRow); err != nil {
			e.stats.AddCombines(ors, ordered, reordered, charges)
			return err
		}
	}
	e.stats.AddCombines(ors, ordered, reordered, charges)
	return nil
}

// overBound is combineAll's shape check: whether the OR (or, for !or,
// the AND) of a and b, each within the bounds, would exceed them.
func (e *engine) overBound(or bool, a, b *tuple.Tuple) bool {
	if or {
		return int(a.W+b.W) > e.cfg.MaxWidth
	}
	return int(a.H+b.H) > e.cfg.MaxHeight
}

// combineCheck is the bounded in-loop cancellation checkpoint, run after
// every row of a node's cross-product with the row's n combinations: it
// polls the context once for each multiple of combineCheckInterval the
// node's count crosses, so the polls and the CancelChecks stat are those
// of one poll per interval of combinations. Before it existed, a single
// node with a large Pareto cross-product could overrun a deadline by
// seconds between the node-boundary checks in processNode. A canceled
// run reports the count at the end of the row.
func (e *engine) combineCheck(id, n int) error {
	from := e.combines / combineCheckInterval
	e.combines += n
	for k := from; k < e.combines/combineCheckInterval; k++ {
		e.stats.AddCancelCheck()
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("mapper: %s canceled inside node %d after %d combines: %w",
				e.cfg.algorithm, id, e.combines, err)
		}
	}
	return nil
}

// complete turns the filled slot table into node id's gate and candidate
// slice, emptying the table for the next node, and returns the number of
// tuples kept. The slice is carved from the arena and written exactly
// once, so a parent never sees it change.
func (e *engine) complete(id int) (int, error) {
	s := e.slots
	kept := s.Size()
	if kept == 0 {
		return 0, fmt.Errorf("mapper: node %d has no feasible tuple (W<=%d, H<=%d)",
			id, e.cfg.MaxWidth, e.cfg.MaxHeight)
	}
	if e.cfg.TupleBudget > 0 {
		e.keptTuples += kept
		if e.keptTuples > e.cfg.TupleBudget {
			e.degraded = true
		}
		if e.degraded {
			// Budget overflow: fall back to the paper's one-tuple-per-shape
			// heuristic from here on. The run still completes with a valid
			// (audit-clean) mapping; it just stops exploring frontiers.
			s.TrimPerKey(e.less)
			e.keptTuples -= kept - s.Size()
			kept = s.Size()
		}
	}
	if cap(e.arena)-len(e.arena) < kept+1 {
		e.newChunk(kept + 1)
	}
	start := len(e.arena)
	e.arena, _ = s.Drain(e.arena, nil)
	// The gate is the first tuple minimal under less once formed; each
	// tuple is formed once and compared with the best one's formed copy.
	best, formed := start, e.form(e.arena[start])
	for k := start + 1; k < len(e.arena); k++ {
		if f := e.form(e.arena[k]); e.less(f, formed) {
			best, formed = k, f
		}
	}
	e.gate[id] = e.arena[best]
	if e.forcedRoot(id) {
		e.arena = e.arena[:start]
	}
	e.arena = append(e.arena, e.gateAsInput(id, &formed))
	e.cands[id] = e.arena[start:len(e.arena):len(e.arena)]
	return kept, nil
}

// newChunk moves the arena to the run's next chunk, one with room for at
// least need tuples: the workspace's chunk at that position when it is
// large enough, else a new one, twice the size of the last (at least 64,
// at most arenaChunk unless need is larger), which replaces it there.
func (e *engine) newChunk(need int) {
	ws := e.ws
	if e.chunk < len(ws.chunks) && cap(ws.chunks[e.chunk]) >= need {
		e.arena = ws.chunks[e.chunk][:0]
	} else {
		e.arena = make([]tuple.Tuple, 0, max(need, min(2*cap(e.arena), arenaChunk), 64))
		if e.chunk < len(ws.chunks) {
			ws.chunks[e.chunk] = e.arena
		} else {
			ws.chunks = append(ws.chunks, e.arena)
		}
	}
	e.chunk++
}

// mixChoices hashes two combine operands into a deterministic value, used
// for the PBE-blind pseudorandom stack order. Each operand contributes its
// node, its shape key — {0,0} for a completed gate's output, the tuple's
// own {W,H} otherwise ({1,1} for a leaf) — and whether it is a gate.
func mixChoices(a, b cand) uint64 {
	ka, kb := hashKey(a), hashKey(b)
	h := uint64(2166136261)
	for _, v := range [8]int{int(a.ch.Node), ka[0], ka[1], ka[2], int(b.ch.Node), kb[0], kb[1], kb[2]} {
		h = (h ^ uint64(v)) * 16777619
	}
	return h >> 7
}

// hashKey is an operand's {W, H, gate} contribution to mixChoices.
func hashKey(c cand) [3]int {
	if c.t.Deriv.Op == tuple.DerivGateInput {
		return [3]int{0, 0, 1}
	}
	return [3]int{int(c.t.W), int(c.t.H), 0}
}
