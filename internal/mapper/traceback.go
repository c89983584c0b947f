package mapper

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"soidomino/internal/logic"
	"soidomino/internal/sp"
	"soidomino/internal/tuple"
)

// traceback rebuilds the chosen solution as concrete gates, then runs the
// discharge pass over them (placeDischarges, reordering each span first
// when reorder is non-nil). Multi-fanout gates are materialized exactly
// once, so the statistics counted from the netlist are exact even where
// the per-cone DP costs overlap.
func (e *engine) traceback(reorder stackOrder) (*Result, error) {
	b := &builder{e: e, ws: e.ws}
	b.ws.resetTraceback(e.net)
	res := &Result{
		Name:         e.net.Name,
		Algorithm:    e.cfg.algorithm,
		Options:      e.cfg.Options,
		OutputGate:   make(map[string]int, len(e.net.Outputs)),
		ConstOutputs: make(map[string]bool),
		Source:       e.net,
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
			res.ConstOutputs[out.Name] = node.Op == logic.Const1
		default:
			gid, err := b.gate(out.Node)
			if err != nil {
				return nil, err
			}
			res.OutputGate[out.Name] = gid
		}
	}
	b.ws.placeDischarges(reorder, e.cfg.SequenceAware)
	res.Gates = b.ws.finishGates()
	res.computeStats()
	return res, nil
}

// builder holds one traceback's state; its scratch lives in the run's
// pooled workspace (see workspace.resetTraceback).
type builder struct {
	e  *engine
	ws *workspace
	// taken holds the network's node names that gateName could produce
	// (those starting with "_g"); nil when there are none, as for the
	// pipeline's unate networks, which name only their inputs.
	taken map[string]bool
}

// gate materializes the completed domino gate for a node, memoized: it
// writes the gate's pulldown span on the build stack, moves it to the
// finished spans and records the gate with its summary. The gate's
// discharges are placed later, by the pass over all finished gates.
func (b *builder) gate(nodeID int) (int, error) {
	ws := b.ws
	if gid := ws.gateOf[nodeID]; gid > 0 {
		return int(gid - 1), nil
	}
	base := len(ws.build)
	predicted := 0 // leaf buffer gates trivially carry no discharges
	width, height := int32(1), int32(1)
	switch {
	case b.e.isLeaf(nodeID):
		// A primary output sitting directly on an input literal gets a
		// single-transistor buffer gate.
		ws.build = append(ws.build, b.leaf(nodeID))
	case b.e.cands[nodeID] != nil:
		t := &b.e.gate[nodeID]
		predicted, width, height = int(t.OwnDisch), t.W, t.H
		if err := b.structure(nodeID, t); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("mapper: no gate solution for node %d", nodeID)
	}
	start := len(ws.nodes)
	ws.nodes = append(ws.nodes, ws.build[base:]...)
	ws.build = ws.build[:base]
	span := sp.Span(ws.nodes[start:])
	gid := len(ws.gates)
	g := Gate{
		ID:     gid,
		Output: b.gateName(nodeID),
		NodeID: nodeID,
		// Only the span's length counts until placeDischarges points it
		// at the final node array: ws.nodes may move while it grows.
		Nodes:               span,
		PredictedDischarges: predicted,
		Level:               1,
		// The DP's own shape for the gate: Audit holds it to the span.
		Width:  int(width),
		Height: int(height),
	}
	for _, n := range span {
		if n.Kind != sp.Leaf {
			continue
		}
		g.Transistors++
		if ref := n.Gate(); ref >= 0 {
			g.Level = max(g.Level, ws.gates[ref].Level+1)
			continue
		}
		g.HasPI = true
		if in := n.Input(); n.Negated && !ws.inverted[in] {
			ws.inverted[in] = true
			g.NewInverters++
		}
	}
	g.Footed = b.e.cfg.AlwaysFooted || g.HasPI
	ws.gates = append(ws.gates, g)
	ws.gateOf[nodeID] = int32(gid + 1)
	return gid, nil
}

// structure writes the span of a table tuple of node id: the children
// that sp.NewSeries or sp.NewParallel would leave after flattening, then
// one composition node over them, without the two-child node of every
// derivation level in between.
func (b *builder) structure(id int, t *tuple.Tuple) error {
	children, err := b.flatten(id, t)
	if err != nil {
		return err
	}
	kind := sp.Series
	if t.Deriv.Op == tuple.DerivOr {
		kind = sp.Parallel
	}
	b.ws.build = append(b.ws.build, sp.Compose(kind, children))
	return nil
}

// flatten writes the children of node id's composition on the build
// stack, top to bottom for a series stack, and returns how many it wrote:
// an operand derived by the same operation contributes its own children,
// any other operand one subtree. Operand A is always resolved before B,
// so gates are materialized (and numbered) in a fixed order whichever
// operand tops a series stack.
func (b *builder) flatten(id int, t *tuple.Tuple) (int, error) {
	op := t.Deriv.Op
	if op != tuple.DerivOr && op != tuple.DerivAnd {
		return 0, fmt.Errorf("mapper: node %d tuple has unexpected derivation %d", id, op)
	}
	base := len(b.ws.build)
	na, err := b.operand(op, t.Deriv.A)
	if err != nil {
		return 0, err
	}
	mid := len(b.ws.build)
	nb, err := b.operand(op, t.Deriv.B)
	if err != nil {
		return 0, err
	}
	if op == tuple.DerivAnd && !t.Deriv.TopIsA {
		// B tops the stack: rotate its sub-spans above A's.
		s := b.ws.build
		slices.Reverse(s[base:mid])
		slices.Reverse(s[mid:])
		slices.Reverse(s[base:])
	}
	return na + nb, nil
}

// operand writes one child Choice of an op derivation and returns the
// number of children it contributes: a completed gate's output or a leaf
// transistor as one leaf, a same-op structure as its flattened children,
// any other structure as one subtree.
func (b *builder) operand(op tuple.DerivOp, ch tuple.Choice) (int, error) {
	id, c := int(ch.Node), b.e.cands[ch.Node]
	if ch.Index < 0 || int(ch.Index) >= len(c) {
		return 0, fmt.Errorf("mapper: node %d has no candidate %d", id, ch.Index)
	}
	t := &c[ch.Index]
	switch t.Deriv.Op {
	case op:
		return b.flatten(id, t)
	case tuple.DerivGateInput:
		gid, err := b.gate(id)
		if err != nil {
			return 0, err
		}
		b.ws.build = append(b.ws.build, sp.GateLeaf(gid))
	case tuple.DerivLeaf:
		b.ws.build = append(b.ws.build, b.leaf(id))
	default:
		if err := b.structure(id, t); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

// leaf is the transistor for a primary input or complemented
// primary-input literal.
func (b *builder) leaf(nodeID int) sp.Node {
	node := b.e.net.Nodes[nodeID]
	if node.Op == logic.Not {
		return sp.InputLeaf(int(b.ws.inputOf[node.Fanin[0]]), true)
	}
	return sp.InputLeaf(int(b.ws.inputOf[nodeID]), false)
}

// gateName produces a collision-free output signal name for a gate.
func (b *builder) gateName(nodeID int) string {
	b.ws.name = strconv.AppendInt(append(b.ws.name[:0], "_g"...), int64(nodeID), 10)
	name := string(b.ws.name)
	for b.taken[name] {
		name += "_"
	}
	return name
}

// resetTraceback empties the workspace's traceback scratch for a run
// over n.
func (ws *workspace) resetTraceback(n *logic.Network) {
	ws.gateOf = resized(ws.gateOf, n.Len())
	clear(ws.gateOf)
	ws.inputOf = resized(ws.inputOf, n.Len()) // read only at inputs
	for i, id := range n.Inputs {
		ws.inputOf[id] = int32(i)
	}
	ws.inverted = resized(ws.inverted, len(n.Inputs))
	clear(ws.inverted)
	ws.build = ws.build[:0]
	ws.nodes = ws.nodes[:0]
	ws.gates = ws.gates[:0]
}

// finishGates copies the finished gates out of the workspace into the
// Result's own memory: one node array, one discharge-point array and one
// gate array, each of exact size, which the gates' slices share (a gate
// without discharges keeps a nil list).
func (ws *workspace) finishGates() []*Gate {
	nodes := slices.Clone(ws.nodes)
	points := slices.Clone(ws.points)
	gates := make([]Gate, len(ws.gates))
	ptrs := make([]*Gate, len(gates))
	nodeAt, pointAt := 0, 0
	for i := range gates {
		g := &gates[i]
		*g = ws.gates[i]
		n, d := len(g.Nodes), len(g.Discharges)
		g.Nodes = nodes[nodeAt : nodeAt+n : nodeAt+n]
		g.Discharges = nil
		if d > 0 {
			g.Discharges = points[pointAt : pointAt+d : pointAt+d]
		}
		nodeAt, pointAt = nodeAt+n, pointAt+d
		ptrs[i] = g
	}
	clear(ws.gates) // the pool must not keep the output names alive
	return ptrs
}
