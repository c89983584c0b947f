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
// their natural (first-fanin-on-top) order; p-discharge devices are added
// by post-processing the finished trees.
func DominoMap(n *logic.Network, opt Options) (*Result, error) {
	return DominoMapContext(context.Background(), n, opt)
}

// DominoMapContext is DominoMap with cancellation: the run observes ctx at
// node-processing checkpoints and returns ctx.Err() if it is canceled or
// its deadline passes before the dynamic program completes.
func DominoMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return run(ctx, n, config{Options: opt, algorithm: "Domino_Map"})
}

// RSMap is DominoMap plus the Rearrange_Stacks post-processing step: each
// finished gate's series stacks are reordered to move parallel sections
// with many potential discharge points toward ground before discharge
// insertion (paper §VI-A).
func RSMap(n *logic.Network, opt Options) (*Result, error) {
	return RSMapContext(context.Background(), n, opt)
}

// RSMapContext is RSMap with cancellation (see DominoMapContext).
func RSMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return run(ctx, n, config{Options: opt, algorithm: "RS_Map", rearrangePost: rearrangeTop})
}

// RSMapDeep is an extension of RSMap whose post-processing reorders every
// series group, including those nested inside parallel branches — stronger
// than the paper's RS_Map but still a pure post-process. The ablation
// benchmarks compare all three.
func RSMapDeep(n *logic.Network, opt Options) (*Result, error) {
	return RSMapDeepContext(context.Background(), n, opt)
}

// RSMapDeepContext is RSMapDeep with cancellation (see DominoMapContext).
func RSMapDeepContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return run(ctx, n, config{Options: opt, algorithm: "RS_Map_deep", rearrangePost: rearrangeDeep})
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
	name := "SOI_Domino_Map"
	if opt.Pareto {
		name = "SOI_Domino_Map_pareto"
	}
	return run(ctx, n, config{
		Options:         opt,
		algorithm:       name,
		trackDischarges: true,
		reorderStacks:   true,
	})
}

func run(ctx context.Context, n *logic.Network, cfg config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := unate.IsUnate(n); err != nil {
		return nil, fmt.Errorf("mapper: input network is not unate: %w", err)
	}
	e := newEngine(ctx, n, cfg)
	e.stats.SetAlgorithm(cfg.algorithm)
	if e.tracer != nil {
		kv := []obs.KV{{Key: "nodes", Val: int64(n.Len())}}
		if id := obs.RequestID(ctx); id != "" {
			e.tracer.Instant("mapper", "run "+cfg.algorithm+" request "+id, kv...)
		} else {
			e.tracer.Instant("mapper", "run "+cfg.algorithm, kv...)
		}
	}
	dpStart := e.tracer.Now()
	err := obs.Timed(e.stats, obs.PhaseDP, e.process)
	e.tracer.Span("mapper", cfg.algorithm+" dp", dpStart)
	if err != nil {
		return nil, err
	}
	tbStart := e.tracer.Now()
	var res *Result
	err = obs.Timed(e.stats, obs.PhaseTraceback, func() error {
		if ferr := e.faults.Check(ctx, PointTraceback); ferr != nil {
			return fmt.Errorf("mapper: %s traceback: %w", cfg.algorithm, ferr)
		}
		var terr error
		res, terr = e.traceback()
		return terr
	})
	e.tracer.Span("mapper", cfg.algorithm+" traceback", tbStart)
	if err != nil {
		return nil, err
	}
	res.Degraded = e.degraded
	return res, nil
}

// newEngine sets up the DP state of one run over a unate network whose
// options are already validated. Every mapping leaf gets its single
// {1,1} candidate up front, so a parent reads a leaf fanin like any
// completed node.
func newEngine(ctx context.Context, n *logic.Network, cfg config) *engine {
	e := &engine{
		ctx:    ctx,
		cfg:    cfg,
		net:    n,
		stats:  obs.StatsFrom(ctx),
		tracer: obs.TracerFrom(ctx),
		faults: faultpoint.From(ctx),
		// FanoutCounts, not ComputeFanout: mapping must not write to the
		// input network, so runs sharing one network can proceed in
		// parallel.
		fanout:  n.FanoutCounts(),
		outRefs: n.OutputRefs(),
		cands:   make([][]tuple.Tuple, n.Len()),
		gate:    make([]tuple.Tuple, n.Len()),
	}
	// Every leaf shares one read-only slice: the {1,1} tuple carries no
	// node id, the Choice that addresses it does.
	leaf := []tuple.Tuple{{W: 1, H: 1, NTrans: 1, HasPI: true, Deriv: tuple.Deriv{Op: tuple.DerivLeaf}}}
	for id := range n.Nodes {
		if e.isLeaf(id) {
			e.cands[id] = leaf
		}
	}
	return e
}

// engine holds the dynamic-programming state for one mapping run.
type engine struct {
	ctx     context.Context
	cfg     config
	net     *logic.Network
	fanout  []int
	outRefs []int
	// stats and tracer are the run's observability hooks, both nil when
	// the context carries none; the nil path is a single branch per
	// recording site (see internal/obs). faults follows the same
	// contract for the run's fault-injection registry.
	stats  *obs.Stats
	tracer *obs.Tracer
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
}

// tupleCost maps a tuple's components to the scalar the configured
// objective minimizes.
func (e *engine) tupleCost(t tuple.Tuple) int {
	switch e.cfg.Objective {
	case Depth:
		c := e.cfg.DepthWeight * int(t.Depth)
		if e.cfg.trackDischarges {
			c += int(t.NDisch)
		}
		return c
	default:
		c := int(t.NTrans) + e.cfg.ClockWeight*int(t.NClock)
		if e.cfg.trackDischarges {
			c += e.cfg.ClockWeight * int(t.NDisch)
		}
		return c
	}
}

// less orders tuples for table insertion and gate formation. The SOI
// algorithm breaks cost ties by p_dis (listing 2); the bulk baseline is
// PBE-blind, so its fallback chain never consults p_dis or discharge
// counts. The remaining fallbacks only serve determinism.
func (e *engine) less(a, b tuple.Tuple) bool {
	if ca, cb := e.tupleCost(a), e.tupleCost(b); ca != cb {
		return ca < cb
	}
	if e.cfg.trackDischarges {
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

// formLess compares tuples by the cost of the gates they would form.
func (e *engine) formLess(a, b tuple.Tuple) bool {
	return e.less(e.form(a), e.form(b))
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
// gate output to drive a single transistor ("an extra transistor is needed
// in the next level", paper §IV). For forced roots the child's gate exists
// regardless of this parent's choice, so only the marginal transistor is
// charged; for single-fanout children the full gate cost rides along so
// the DP can trade early gate formation against larger pulldowns.
func (e *engine) gateAsInput(id int) tuple.Tuple {
	f := e.form(e.gate[id])
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

// combineAnd implements the paper's combine_and. With reorderStacks the
// stack order is chosen from par_b and p_dis: a parallel-at-bottom input
// goes to the bottom (it may reach ground); if both or neither qualify,
// the larger p_dis goes to the bottom. If the top has a parallel bottom,
// its potential points plus the new junction are discharged immediately;
// otherwise the junction joins the potential set.
func (e *engine) combineAnd(a, b cand) tuple.Tuple {
	topIsA := true // source order: first operand on top
	switch {
	case e.cfg.reorderStacks:
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
	return e.combineAndOrdered(a, b, topIsA)
}

// combineAndOrdered is combineAnd with the stack order fixed by the
// caller; the Pareto mode emits both orders and lets dominance decide.
func (e *engine) combineAndOrdered(a, b cand, topIsA bool) tuple.Tuple {
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
	if top.ParB {
		// The top's bottom-most parallel stack can never reach ground: its
		// potential points and its bottom common node (the new junction)
		// materialize as discharges. Potential points the top holds below
		// non-parallel elements stay potential: they only ever materialize
		// through an enclosing parallel branch.
		t.NDisch += top.PDisBot + 1
		t.OwnDisch += top.PDisBot + 1
		t.PDis = (top.PDis - top.PDisBot) + bottom.PDis
	} else {
		t.PDis = top.PDis + bottom.PDis + 1
	}
	t.PDisBot = bottom.PDisBot
	return t
}

// combineCheckInterval bounds the work between in-loop cancellation
// checkpoints: one context poll per this many combine calls, so a node
// with a huge Pareto cross-product cannot overrun a job deadline by more
// than a bounded slice of work. The per-node combine counter resets at
// every node boundary, which keeps the CancelChecks stat a pure function
// of the network and options — independent of worker count and
// scheduling, as the byte-identical determinism contract requires.
const combineCheckInterval = 1024

// nodeCtx carries one worker's context, collectors and scratch through
// the DP. The sequential engine uses a single nodeCtx wired to the run's
// real collectors; each parallel worker gets a private stats shard and
// span buffer so node processing never contends, and processParallel
// merges the shards (and emits the buffered spans in node order) after
// the pool drains. slots is the worker's dense table, reused for every
// node it maps; arena is the tail of the worker's current chunk of
// candidate storage, which completed nodes' slices are carved from.
type nodeCtx struct {
	ctx      context.Context
	stats    *obs.Stats
	spans    []obs.Span // indexed by node id; nil = emit spans directly
	combines int        // combine calls since the last checkpoint
	slots    *tuple.Slots
	arena    []tuple.Tuple
}

// arenaChunk caps the size, in tuples, of one candidate-storage chunk;
// chunks start small and double so a tiny network allocates little.
const arenaChunk = 4096

func (e *engine) newNodeCtx(ctx context.Context) *nodeCtx {
	return &nodeCtx{ctx: ctx, slots: tuple.NewSlots(e.cfg.MaxWidth, e.cfg.MaxHeight, e.cfg.Pareto)}
}

// process fills the DP tables (paper listing 2), dispatching on the
// resolved worker count: the readiness-scheduled pool in parallel.go, or
// the plain topological loop. Both produce byte-identical Results.
func (e *engine) process() error {
	if w := e.effectiveWorkers(); w > 1 {
		return e.processParallel(w)
	}
	return e.processSequential()
}

func (e *engine) processSequential() error {
	nc := e.newNodeCtx(e.ctx)
	nc.stats = e.stats
	for id := range e.net.Nodes {
		if err := e.processNode(nc, id); err != nil {
			return err
		}
	}
	return nil
}

// processNode maps one node. Every node boundary is a cancellation
// checkpoint: a canceled or expired context aborts the run with
// ctx.Err() instead of finishing the DP; combineCheck adds bounded
// in-loop checkpoints inside large cross-products.
func (e *engine) processNode(nc *nodeCtx, id int) error {
	nc.stats.AddCancelCheck()
	if err := nc.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled at node %d of %d: %w",
			e.cfg.algorithm, id, e.net.Len(), err)
	}
	if err := e.faults.Check(nc.ctx, PointCombine); err != nil {
		return fmt.Errorf("mapper: %s at node %d: %w", e.cfg.algorithm, id, err)
	}
	nc.combines = 0
	node := &e.net.Nodes[id]
	switch node.Op {
	case logic.Input, logic.Not:
		// Leaves: their candidate slice is set up by newEngine.
	case logic.Const0, logic.Const1:
		if e.fanout[id] > 0 {
			return fmt.Errorf("mapper: constant node %d feeds gates; fold constants before mapping", id)
		}
	case logic.And, logic.Or:
		traced := e.tracer.SampleNode(id)
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
		if err := e.combineAll(nc, id, node, ua, ub); err != nil {
			return err
		}
		kept, err := e.complete(nc, id)
		if err != nil {
			return err
		}
		nc.stats.AddNode(kept)
		if traced {
			p := e.tracer.Capture("dp", fmt.Sprintf("node %d %s", id, node.Op), nodeStart,
				obs.KV{Key: "cands_a", Val: int64(len(ua))},
				obs.KV{Key: "cands_b", Val: int64(len(ub))},
				obs.KV{Key: "kept", Val: int64(kept)})
			if nc.spans != nil {
				nc.spans[id] = p
			} else {
				e.tracer.Emit(p)
			}
		}
	default:
		return fmt.Errorf("mapper: node %d has unsupported op %s", id, node.Op)
	}
	return nil
}

// combineAll fills the worker's slot table with every combination of the
// two fanins' candidates: one tuple per shape in the paper's mode, a
// frontier per state in Pareto mode, where a series composition is
// tried in both stack orders and dominance decides.
func (e *engine) combineAll(nc *nodeCtx, id int, node *logic.Node, ua, ub []tuple.Tuple) error {
	fa, fb := int32(node.Fanin[0]), int32(node.Fanin[1])
	for i := range ua {
		a := cand{&ua[i], tuple.Choice{Node: fa, Index: int32(i)}}
		for j := range ub {
			b := cand{&ub[j], tuple.Choice{Node: fb, Index: int32(j)}}
			if node.Op == logic.And && e.cfg.Pareto {
				for _, topIsA := range [2]bool{true, false} {
					if err := e.offer(nc, id, node.Op, e.combineAndOrdered(a, b, topIsA), a, b); err != nil {
						return err
					}
				}
				continue
			}
			var t tuple.Tuple
			if node.Op == logic.Or {
				t = e.combineOr(a, b)
			} else {
				t = e.combineAnd(a, b)
			}
			if err := e.offer(nc, id, node.Op, t, a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// offer charges one combination to the worker's stats, runs the bounded
// in-loop cancellation checkpoint, and inserts the tuple into the
// worker's slot table, which rejects shapes beyond MaxWidth×MaxHeight.
func (e *engine) offer(nc *nodeCtx, id int, op logic.Op, t tuple.Tuple, a, b cand) error {
	e.recordCombine(nc.stats, op, &t, a.t, b.t)
	if err := e.combineCheck(nc, id); err != nil {
		return err
	}
	if e.cfg.Pareto {
		nc.slots.InsertPareto(t, e.tupleCost)
	} else {
		nc.slots.Insert(t, e.less)
	}
	return nil
}

// complete turns the filled slot table into node id's gate and candidate
// slice, emptying the table for the worker's next node, and returns the
// number of tuples kept. The slice is carved from the worker's arena and
// written exactly once, before the parallel engine releases any
// dependent, so a parent never sees it change.
func (e *engine) complete(nc *nodeCtx, id int) (int, error) {
	s := nc.slots
	kept := s.Size()
	if kept == 0 {
		return 0, fmt.Errorf("mapper: node %d has no feasible tuple (W<=%d, H<=%d)",
			id, e.cfg.MaxWidth, e.cfg.MaxHeight)
	}
	if e.cfg.Pareto && e.cfg.TupleBudget > 0 {
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
	if cap(nc.arena)-len(nc.arena) < kept+1 {
		nc.arena = make([]tuple.Tuple, 0, max(kept+1, min(2*cap(nc.arena), arenaChunk), 64))
	}
	start := len(nc.arena)
	var best int
	nc.arena, best = s.Drain(nc.arena, e.formLess)
	e.gate[id] = nc.arena[best]
	if e.forcedRoot(id) {
		nc.arena = nc.arena[:start]
	}
	nc.arena = append(nc.arena, e.gateAsInput(id))
	e.cands[id] = nc.arena[start:len(nc.arena):len(nc.arena)]
	return kept, nil
}

// combineCheck is the bounded in-loop cancellation checkpoint, called
// once per combine; it polls the context every combineCheckInterval
// calls. Before it existed, a single node with a large Pareto
// cross-product could overrun a deadline by seconds between the
// node-boundary checks in processNode.
func (e *engine) combineCheck(nc *nodeCtx, id int) error {
	nc.combines++
	if nc.combines%combineCheckInterval != 0 {
		return nil
	}
	nc.stats.AddCancelCheck()
	if err := nc.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled inside node %d after %d combines: %w",
			e.cfg.algorithm, id, nc.combines, err)
	}
	return nil
}

// recordCombine charges one combine call to a stats collector: the kind
// (OR, AND in source order, AND with the stack flipped) and the
// p-discharge devices the combination materialized, recovered from the
// cumulative OwnDisch totals so the combine functions themselves stay
// instrumentation-free. st is nil-receiver safe (see obs.Stats), so
// call sites need no guard.
func (e *engine) recordCombine(st *obs.Stats, op logic.Op, t, a, b *tuple.Tuple) {
	or := op == logic.Or
	st.AddCombine(or, !or && !t.Deriv.TopIsA, int(t.OwnDisch-a.OwnDisch-b.OwnDisch))
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
