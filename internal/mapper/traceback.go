package mapper

import (
	"fmt"

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
		gateOf: make(map[int]int),
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

type builder struct {
	e      *engine
	res    *Result
	gateOf map[int]int // unate node id -> gate id
}

// gate materializes the completed domino gate for a node, memoized.
func (b *builder) gate(nodeID int) (int, error) {
	if gid, ok := b.gateOf[nodeID]; ok {
		return gid, nil
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
	level := 1
	for _, leaf := range tree.Leaves() {
		if leaf.GateRef >= 0 && b.res.Gates[leaf.GateRef].Level+1 > level {
			level = b.res.Gates[leaf.GateRef].Level + 1
		}
	}
	discharges := pbe.GateDischargePoints(tree)
	if b.e.cfg.SequenceAware {
		discharges = pbe.PruneUnexcitable(tree, discharges)
	}
	gid := len(b.res.Gates)
	g := &Gate{
		ID:                  gid,
		Output:              b.gateName(nodeID),
		NodeID:              nodeID,
		Tree:                tree,
		Discharges:          discharges,
		PredictedDischarges: predicted,
		Footed:              b.e.cfg.AlwaysFooted || tree.HasPI(),
		Level:               level,
	}
	b.res.Gates = append(b.res.Gates, g)
	b.gateOf[nodeID] = gid
	return gid, nil
}

// structure rebuilds the SP tree of a table tuple of node id.
func (b *builder) structure(id int, t *tuple.Tuple) (*sp.Tree, error) {
	if t.Deriv.Op != tuple.DerivOr && t.Deriv.Op != tuple.DerivAnd {
		return nil, fmt.Errorf("mapper: node %d tuple has unexpected derivation %d", id, t.Deriv.Op)
	}
	a, err := b.resolve(t.Deriv.A)
	if err != nil {
		return nil, err
	}
	c, err := b.resolve(t.Deriv.B)
	if err != nil {
		return nil, err
	}
	switch {
	case t.Deriv.Op == tuple.DerivOr:
		return sp.NewParallel(a, c), nil
	case t.Deriv.TopIsA:
		return sp.NewSeries(a, c), nil
	default:
		return sp.NewSeries(c, a), nil
	}
}

// resolve materializes one child Choice as a subtree: a completed gate's
// output, a leaf transistor, or the child's raw structure.
func (b *builder) resolve(ch tuple.Choice) (*sp.Tree, error) {
	id, c := int(ch.Node), b.e.cands[ch.Node]
	if ch.Index < 0 || int(ch.Index) >= len(c) {
		return nil, fmt.Errorf("mapper: node %d has no candidate %d", id, ch.Index)
	}
	t := &c[ch.Index]
	switch t.Deriv.Op {
	case tuple.DerivGateInput:
		gid, err := b.gate(id)
		if err != nil {
			return nil, err
		}
		return sp.NewLeaf(b.res.Gates[gid].Output, false, gid), nil
	case tuple.DerivLeaf:
		return b.leafTree(id), nil
	}
	return b.structure(id, t)
}

// leafTree builds the transistor for a primary input or complemented
// primary-input literal.
func (b *builder) leafTree(nodeID int) *sp.Tree {
	node := b.e.net.Nodes[nodeID]
	if node.Op == logic.Not {
		in := b.e.net.Nodes[node.Fanin[0]]
		return sp.NewLeaf(in.Name, true, -1)
	}
	return sp.NewLeaf(node.Name, false, -1)
}

// gateName produces a collision-free output signal name for a gate.
func (b *builder) gateName(nodeID int) string {
	name := fmt.Sprintf("_g%d", nodeID)
	for b.e.net.NodeByName(name) >= 0 {
		name += "_"
	}
	return name
}
