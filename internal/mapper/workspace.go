package mapper

import (
	"sync"

	"soidomino/internal/logic"
	"soidomino/internal/pbe"
	"soidomino/internal/sp"
	"soidomino/internal/tuple"
)

// workspace is the DP state that lives only as long as one run: the
// per-node candidate and gate slices, the fanout and output-reference
// counts, the slot tables and the candidate-arena chunks. Runs borrow a
// workspace from workspaces in newEngine and give it back after
// traceback, so a warm run reuses all of it instead of allocating and
// zeroing it again. It is reset when taken, never only when given back:
// a canceled or failed run may leave a half-filled table behind.
// Traceback and the discharge pass build in it too, and copy what the
// Result keeps out at exact size (finishGates).
type workspace struct {
	cands   [][]tuple.Tuple
	gate    []tuple.Tuple
	fanout  []int
	outRefs []int
	// slots holds one table per (MaxWidth, MaxHeight, Pareto) a run of
	// this workspace has used.
	slots map[slotsKey]*tuple.Slots
	// chunks are the candidate-arena chunks in the order a run fills
	// them (see engine.newChunk).
	chunks [][]tuple.Tuple
	// leaf backs the one read-only {1,1} slice every mapping leaf shares.
	leaf [1]tuple.Tuple

	// Traceback's scratch (see resetTraceback). gateOf maps a node id to
	// its gate id + 1, 0 until the gate is materialized; inputOf maps an
	// input's node id to its input index; inverted marks the inputs some
	// gate already uses complemented. build is the stack a gate's span is
	// written on, and the discharge pass's reorder buffer; nodes and gates
	// hold the finished gates, points their discharge points
	// (placeDischarges) and pot the pass's potential-point scratch.
	gateOf   []int32
	inputOf  []int32
	inverted []bool
	build    []sp.Node
	nodes    []sp.Node
	gates    []Gate
	points   []pbe.Point
	pot      []pbe.Point
	name     []byte // gateName's scratch
}

type slotsKey struct {
	w, h   int
	pareto bool
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// takeWorkspace returns a workspace reset for a run over n; table then
// gives its empty slot table.
func takeWorkspace(n *logic.Network) *workspace {
	ws := workspaces.Get().(*workspace)
	size := n.Len()
	ws.cands = resized(ws.cands, size)
	clear(ws.cands)
	ws.gate = resized(ws.gate, size) // written before it is read
	ws.fanout = resized(ws.fanout, size)
	ws.outRefs = resized(ws.outRefs, size)
	clear(ws.fanout)
	clear(ws.outRefs)
	for _, node := range n.Nodes {
		for _, f := range node.Fanin {
			ws.fanout[f]++
		}
	}
	for _, out := range n.Outputs {
		ws.outRefs[out.Node]++
	}
	ws.leaf[0] = tuple.Tuple{W: 1, H: 1, NTrans: 1, HasPI: true, Deriv: tuple.Deriv{Op: tuple.DerivLeaf}}
	return ws
}

// table returns the workspace's empty slot table for cfg's bounds and
// mode.
func (ws *workspace) table(cfg config) *tuple.Slots {
	k := slotsKey{cfg.MaxWidth, cfg.MaxHeight, cfg.Pareto}
	s := ws.slots[k]
	if s == nil {
		if ws.slots == nil {
			ws.slots = make(map[slotsKey]*tuple.Slots)
		}
		s = tuple.NewSlots(k.w, k.h, k.pareto)
		ws.slots[k] = s
	}
	s.Reset()
	return s
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
