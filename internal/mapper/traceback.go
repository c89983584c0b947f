package mapper

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"soidomino/internal/logic"
	"soidomino/internal/pbe"
	"soidomino/internal/sp"
	"soidomino/internal/tuple"
)

// traceback rebuilds the chosen solution as concrete gates. Multi-fanout
// gates are materialized exactly once, so the statistics counted from the
// netlist are exact even where the per-cone DP costs overlap.
func (e *engine) traceback() (*Result, error) {
	b := &builder{
		e: e,
		res: &Result{
			Name:         e.net.Name,
			Algorithm:    e.cfg.algorithm,
			Options:      e.cfg.Options,
			OutputGate:   make(map[string]int),
			ConstOutputs: make(map[string]bool),
			Source:       e.net,
		},
		gateOf: make([]int32, e.net.Len()),
	}
	for _, node := range e.net.Nodes {
		if strings.HasPrefix(node.Name, "_g") {
			if b.taken == nil {
				b.taken = make(map[string]bool)
			}
			b.taken[node.Name] = true
		}
	}
	for _, out := range e.net.Outputs {
		node := e.net.Nodes[out.Node]
		switch node.Op {
		case logic.Const0, logic.Const1:
			b.res.ConstOutputs[out.Name] = node.Op == logic.Const1
		default:
			gid, err := b.gate(out.Node)
			if err != nil {
				return nil, err
			}
			b.res.OutputGate[out.Name] = gid
		}
	}
	b.res.computeStats()
	return b.res, nil
}

// builder holds one traceback's state. Gates, tree nodes, child-pointer
// arrays and discharge lists come from per-run arenas, so the run
// allocates per arena chunk rather than per node; the chunks stay alive
// as long as the Result that holds them.
type builder struct {
	e      *engine
	res    *Result
	gateOf []int32 // unate node id -> gate id + 1; 0 until materialized

	gates  arena[Gate]
	nodes  arena[sp.Tree]
	kids   arena[*sp.Tree]
	points arena[pbe.Point]

	// stack holds the flattened children of the compositions under
	// construction; each one copies its segment out when complete.
	stack []*sp.Tree
	// analysis is the reused destination of each gate's PBE analysis.
	analysis pbe.Analysis
	name     []byte // gateName's scratch
	// taken holds the network's node names that gateName could produce
	// (those starting with "_g"); nil when there are none, as for the
	// pipeline's unate networks, which name only their inputs.
	taken map[string]bool
}

// gate materializes the completed domino gate for a node, memoized.
func (b *builder) gate(nodeID int) (int, error) {
	if gid := b.gateOf[nodeID]; gid > 0 {
		return int(gid - 1), nil
	}
	var tree *sp.Tree
	predicted := 0 // leaf buffer gates trivially carry no discharges
	switch {
	case b.e.isLeaf(nodeID):
		// A primary output sitting directly on an input literal gets a
		// single-transistor buffer gate.
		tree = b.leafTree(nodeID)
	case b.e.cands[nodeID] != nil:
		t := &b.e.gate[nodeID]
		predicted = int(t.OwnDisch)
		var err error
		tree, err = b.structure(nodeID, t)
		if err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("mapper: no gate solution for node %d", nodeID)
	}
	switch b.e.cfg.rearrangePost {
	case rearrangeTop:
		tree = pbe.Rearrange(tree)
		predicted = -1
	case rearrangeDeep:
		tree = pbe.RearrangeDeep(tree)
		predicted = -1
	}
	b.analysis = pbe.Analyze(tree, b.analysis.Immediate[:0], b.analysis.Potential[:0])
	var discharges []pbe.Point
	switch imm := b.analysis.Immediate; {
	case b.e.cfg.SequenceAware:
		discharges = pbe.PruneUnexcitable(tree, imm)
	case len(imm) > 0:
		discharges = b.points.take(len(imm))
		copy(discharges, imm)
	}
	gid := len(b.res.Gates)
	g := &b.gates.take(1)[0]
	*g = Gate{
		ID:                  gid,
		Output:              b.gateName(nodeID),
		NodeID:              nodeID,
		Tree:                tree,
		Discharges:          discharges,
		PredictedDischarges: predicted,
		Footed:              b.e.cfg.AlwaysFooted || tree.HasPI(),
		Level:               b.level(tree),
	}
	b.res.Gates = append(b.res.Gates, g)
	b.gateOf[nodeID] = int32(gid + 1)
	return gid, nil
}

// level is the domino level of a gate with pulldown t: one above the
// deepest gate driving one of its leaves, 1 when only inputs drive it.
func (b *builder) level(t *sp.Tree) int {
	if t.Kind == sp.Leaf {
		if t.GateRef >= 0 {
			return b.res.Gates[t.GateRef].Level + 1
		}
		return 1
	}
	level := 1
	for _, c := range t.Children {
		level = max(level, b.level(c))
	}
	return level
}

// structure builds the SP tree of a table tuple of node id as one
// composition node whose children are exactly what sp.NewSeries or
// sp.NewParallel would leave after flattening, without building the
// two-child node of every derivation level in between.
func (b *builder) structure(id int, t *tuple.Tuple) (*sp.Tree, error) {
	base := len(b.stack)
	if err := b.flatten(id, t); err != nil {
		return nil, err
	}
	n := &b.nodes.take(1)[0]
	n.Kind = sp.Series
	if t.Deriv.Op == tuple.DerivOr {
		n.Kind = sp.Parallel
	}
	n.Children = b.kids.take(len(b.stack) - base)
	copy(n.Children, b.stack[base:])
	b.stack = b.stack[:base]
	return n, nil
}

// flatten pushes the children of node id's composition onto b.stack, top
// to bottom for a series stack: an operand derived by the same operation
// contributes its own children, any other operand one subtree. Operand A
// is always resolved before B, so gates are materialized (and numbered)
// in a fixed order whichever operand tops a series stack.
func (b *builder) flatten(id int, t *tuple.Tuple) error {
	op := t.Deriv.Op
	if op != tuple.DerivOr && op != tuple.DerivAnd {
		return fmt.Errorf("mapper: node %d tuple has unexpected derivation %d", id, op)
	}
	base := len(b.stack)
	if err := b.operand(op, t.Deriv.A); err != nil {
		return err
	}
	mid := len(b.stack)
	if err := b.operand(op, t.Deriv.B); err != nil {
		return err
	}
	if op == tuple.DerivAnd && !t.Deriv.TopIsA {
		// B tops the stack: rotate its segment above A's.
		slices.Reverse(b.stack[base:mid])
		slices.Reverse(b.stack[mid:])
		slices.Reverse(b.stack[base:])
	}
	return nil
}

// operand pushes one child Choice of an op derivation: a completed gate's
// output or a leaf transistor as a leaf, a same-op structure as its
// flattened children, any other structure as one subtree.
func (b *builder) operand(op tuple.DerivOp, ch tuple.Choice) error {
	id, c := int(ch.Node), b.e.cands[ch.Node]
	if ch.Index < 0 || int(ch.Index) >= len(c) {
		return fmt.Errorf("mapper: node %d has no candidate %d", id, ch.Index)
	}
	t := &c[ch.Index]
	var sub *sp.Tree
	switch t.Deriv.Op {
	case op:
		return b.flatten(id, t)
	case tuple.DerivGateInput:
		gid, err := b.gate(id)
		if err != nil {
			return err
		}
		sub = b.leaf(b.res.Gates[gid].Output, false, gid)
	case tuple.DerivLeaf:
		sub = b.leafTree(id)
	default:
		var err error
		if sub, err = b.structure(id, t); err != nil {
			return err
		}
	}
	b.stack = append(b.stack, sub)
	return nil
}

// leafTree builds the transistor for a primary input or complemented
// primary-input literal.
func (b *builder) leafTree(nodeID int) *sp.Tree {
	node := b.e.net.Nodes[nodeID]
	if node.Op == logic.Not {
		in := b.e.net.Nodes[node.Fanin[0]]
		return b.leaf(in.Name, true, -1)
	}
	return b.leaf(node.Name, false, -1)
}

// leaf is sp.NewLeaf on the builder's node arena.
func (b *builder) leaf(signal string, negated bool, gateRef int) *sp.Tree {
	n := &b.nodes.take(1)[0]
	*n = *sp.NewLeaf(signal, negated, gateRef)
	return n
}

// gateName produces a collision-free output signal name for a gate.
func (b *builder) gateName(nodeID int) string {
	b.name = strconv.AppendInt(append(b.name[:0], "_g"...), int64(nodeID), 10)
	name := string(b.name)
	for b.taken[name] {
		name += "_"
	}
	return name
}

// arena hands out exact-size slices carved from shared chunks. Chunks
// double from arenaMinChunk up to arenaMaxChunk elements, so a small
// circuit's run wastes little and a large one allocates a few dozen
// times. A returned slice's capacity is clipped to its length: appending
// to it reallocates instead of overwriting its neighbour.
type arena[T any] struct {
	free  []T
	chunk int
}

const (
	arenaMinChunk = 32
	arenaMaxChunk = 4096
)

func (a *arena[T]) take(n int) []T {
	if len(a.free) < n {
		a.chunk = min(max(2*a.chunk, arenaMinChunk), arenaMaxChunk)
		a.free = make([]T, max(n, a.chunk))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}
