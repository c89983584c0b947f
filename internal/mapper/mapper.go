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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := unate.IsUnate(n); err != nil {
		return nil, fmt.Errorf("mapper: input network is not unate: %w", err)
	}
	e := &engine{
		ctx:        ctx,
		cfg:        cfg,
		net:        n,
		stats:      obs.StatsFrom(ctx),
		tracer:     obs.TracerFrom(ctx),
		faults:     faultpoint.From(ctx),
		tables:     make([]tuple.Table, n.Len()),
		gateChoice: make([]tuple.Choice, n.Len()),
		formed:     make([]tuple.Tuple, n.Len()),
		hasGate:    make([]bool, n.Len()),
	}
	if cfg.Pareto {
		e.fronts = make([]tuple.Frontier, n.Len())
	}
	e.stats.SetAlgorithm(cfg.algorithm)
	if e.tracer != nil {
		kv := []obs.KV{{Key: "nodes", Val: int64(n.Len())}}
		if id := obs.RequestID(ctx); id != "" {
			e.tracer.Instant("mapper", "run "+cfg.algorithm+" request "+id, kv...)
		} else {
			e.tracer.Instant("mapper", "run "+cfg.algorithm, kv...)
		}
	}
	// FanoutCounts, not ComputeFanout: mapping must not write to the input
	// network, so runs sharing one network can proceed in parallel.
	e.fanout = n.FanoutCounts()
	e.outRefs = n.OutputRefs()
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

	tables     []tuple.Table    // per And/Or node: best tuple per {W,H}
	fronts     []tuple.Frontier // Pareto mode: frontier per node
	gateChoice []tuple.Choice   // per node: the tuple chosen at gate formation
	formed     []tuple.Tuple    // per node: cumulative totals of the formed gate
	hasGate    []bool
}

// tupleCost maps a tuple's components to the scalar the configured
// objective minimizes.
func (e *engine) tupleCost(t tuple.Tuple) int {
	switch e.cfg.Objective {
	case Depth:
		c := e.cfg.DepthWeight * t.Depth
		if e.cfg.trackDischarges {
			c += t.NDisch
		}
		return c
	default:
		c := t.NTrans + e.cfg.ClockWeight*t.NClock
		if e.cfg.trackDischarges {
			c += e.cfg.ClockWeight * t.NDisch
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

// leafTuple is the single {1,1} sub-solution of a mapping leaf.
func (e *engine) leafTuple(id int) tuple.Tuple {
	return tuple.Tuple{
		W: 1, H: 1,
		NTrans: 1,
		HasPI:  true,
		Deriv:  tuple.Deriv{Op: tuple.DerivLeaf, Leaf: id},
	}
}

// gateAsInput is the {1,1} sub-solution that uses the child's completed
// gate output to drive a single transistor ("an extra transistor is needed
// in the next level", paper §IV). For forced roots the child's gate exists
// regardless of this parent's choice, so only the marginal transistor is
// charged; for single-fanout children the full gate cost rides along so
// the DP can trade early gate formation against larger pulldowns.
func (e *engine) gateAsInput(id int) tuple.Tuple {
	f := e.formed[id]
	t := tuple.Tuple{
		W: 1, H: 1,
		NTrans: 1,
		Depth:  f.Depth,
		Deriv:  tuple.Deriv{Op: tuple.DerivGateInput, Leaf: id},
	}
	if !e.forcedRoot(id) {
		t.NTrans += f.NTrans
		t.NClock = f.NClock
		t.NDisch = f.NDisch
		t.NGates = f.NGates
	}
	return t
}

// cand pairs a usable tuple with the Choice that reconstructs it.
type cand struct {
	t  tuple.Tuple
	ch tuple.Choice
}

// usable enumerates the sub-solutions a parent may draw from child id, in
// deterministic order.
func (e *engine) usable(id int) ([]cand, error) {
	if e.isLeaf(id) {
		t := e.leafTuple(id)
		return []cand{{t, tuple.Choice{Node: id, Key: t.Key()}}}, nil
	}
	if !e.hasGate[id] {
		return nil, fmt.Errorf("mapper: node %d (%s) is not mappable", id, e.net.Nodes[id].Op)
	}
	var out []cand
	if !e.forcedRoot(id) {
		if e.cfg.Pareto {
			for _, it := range e.fronts[id].All() {
				out = append(out, cand{it.Tuple, tuple.Choice{
					Node: id, Pareto: true, Front: it.FKey, Index: it.Index,
				}})
			}
		} else {
			tb := e.tables[id]
			for _, k := range tb.SortedKeys() {
				out = append(out, cand{tb[k], tuple.Choice{Node: id, Key: k}})
			}
		}
	}
	out = append(out, cand{e.gateAsInput(id), tuple.Choice{Node: id, Gate: true}})
	return out, nil
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
		topIsA = mixChoices(a.ch, b.ch)&1 == 0
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

// nodeCtx carries one worker's context and collectors through the DP.
// The sequential engine uses a single nodeCtx wired to the run's real
// collectors; each parallel worker gets a private stats shard and span
// buffer so node processing never contends, and processParallel merges
// the shards (and emits the buffered spans in node order) after the
// pool drains.
type nodeCtx struct {
	ctx      context.Context
	stats    *obs.Stats
	spans    []obs.Span // indexed by node id; nil = emit spans directly
	combines int        // combine calls since the last checkpoint
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
	nc := &nodeCtx{ctx: e.ctx, stats: e.stats}
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
		// Leaves: handled on demand by usable().
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
		kept := 0
		if e.cfg.Pareto {
			if err := e.processPareto(nc, id, node.Op, ua, ub); err != nil {
				return err
			}
			kept = e.fronts[id].Size()
		} else {
			tb := tuple.Table{}
			for _, a := range ua {
				for _, b := range ub {
					var t tuple.Tuple
					if node.Op == logic.Or {
						t = e.combineOr(a, b)
					} else {
						t = e.combineAnd(a, b)
					}
					e.recordCombine(nc.stats, node.Op, t, a.t, b.t)
					if err := e.combineCheck(nc, id); err != nil {
						return err
					}
					if t.W <= e.cfg.MaxWidth && t.H <= e.cfg.MaxHeight {
						tb.Insert(t, e.less)
					}
				}
			}
			if tb.Keys() == 0 {
				return fmt.Errorf("mapper: node %d has no feasible tuple (W<=%d, H<=%d)",
					id, e.cfg.MaxWidth, e.cfg.MaxHeight)
			}
			e.tables[id] = tb
			best, _ := tb.Best(e.formLess)
			e.gateChoice[id] = tuple.Choice{Node: id, Key: best.Key()}
			e.formed[id] = e.form(best)
			e.hasGate[id] = true
			kept = tb.Keys()
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
func (e *engine) recordCombine(st *obs.Stats, op logic.Op, t, a, b tuple.Tuple) {
	or := op == logic.Or
	st.AddCombine(or, !or && !t.Deriv.TopIsA, t.OwnDisch-a.OwnDisch-b.OwnDisch)
}

// processPareto fills one node's frontier, considering every child
// frontier entry and, for series composition, both stack orders.
func (e *engine) processPareto(nc *nodeCtx, id int, op logic.Op, ua, ub []cand) error {
	fr := tuple.Frontier{}
	insert := func(t tuple.Tuple) {
		if t.W <= e.cfg.MaxWidth && t.H <= e.cfg.MaxHeight {
			fr.Insert(t, e.tupleCost)
		}
	}
	for _, a := range ua {
		for _, b := range ub {
			if op == logic.Or {
				t := e.combineOr(a, b)
				e.recordCombine(nc.stats, op, t, a.t, b.t)
				if err := e.combineCheck(nc, id); err != nil {
					return err
				}
				insert(t)
				continue
			}
			for _, topIsA := range [2]bool{true, false} {
				t := e.combineAndOrdered(a, b, topIsA)
				e.recordCombine(nc.stats, op, t, a.t, b.t)
				if err := e.combineCheck(nc, id); err != nil {
					return err
				}
				insert(t)
			}
		}
	}
	if fr.Size() == 0 {
		return fmt.Errorf("mapper: node %d has no feasible tuple (W<=%d, H<=%d)",
			id, e.cfg.MaxWidth, e.cfg.MaxHeight)
	}
	if e.cfg.TupleBudget > 0 {
		e.keptTuples += fr.Size()
		if e.keptTuples > e.cfg.TupleBudget {
			e.degraded = true
		}
		if e.degraded {
			// Budget overflow: fall back to the paper's one-tuple-per-shape
			// heuristic from here on. The run still completes with a valid
			// (audit-clean) mapping; it just stops exploring frontiers.
			before := fr.Size()
			fr.TrimPerKey(e.less)
			e.keptTuples -= before - fr.Size()
		}
	}
	e.fronts[id] = fr
	best, _ := fr.Best(e.formLess)
	e.gateChoice[id] = tuple.Choice{Node: id, Pareto: true, Front: best.FKey, Index: best.Index}
	e.formed[id] = e.form(best.Tuple)
	e.hasGate[id] = true
	return nil
}

// mixChoices hashes two child choices into a deterministic value, used for
// the PBE-blind pseudorandom stack order.
func mixChoices(a, b tuple.Choice) uint64 {
	h := uint64(2166136261)
	for _, v := range []int{a.Node, a.Key.W, a.Key.H, boolInt(a.Gate), b.Node, b.Key.W, b.Key.H, boolInt(b.Gate)} {
		h = (h ^ uint64(v)) * 16777619
	}
	return h >> 7
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
