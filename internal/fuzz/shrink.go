package fuzz

import (
	"context"

	"soidomino/internal/logic"
)

// Shrink delta-debugs a failing network to a (locally) minimal one:
// greedily applies node-reducing edits — dropping outputs, retargeting
// outputs into their cone, bypassing gates with one of their fanins,
// dropping wide-gate fanins, substituting whole cones by a primary input —
// keeping an edit whenever the reduced network still fails. Every accepted
// edit strictly reduces the node count (unreferenced logic and unused
// inputs are garbage-collected on rebuild), so the loop terminates; the
// attempt budget bounds the total number of predicate evaluations.
func Shrink(net *logic.Network, failing func(*logic.Network) bool, maxAttempts int) *logic.Network {
	cur := rebuild(net, edit{}) // normalize: drop logic unreachable from the outputs
	if !failing(cur) {
		// GC alone changed the verdict (the failure depended on dead
		// logic); fall back to the original so callers still hold a
		// failing network.
		return net
	}
	attempts := 0
	for {
		improved := false
		for _, ed := range candidates(cur) {
			if attempts >= maxAttempts {
				return cur
			}
			next := rebuild(cur, ed)
			if next.Len() >= cur.Len() || len(next.Outputs) == 0 {
				continue
			}
			attempts++
			if failing(next) {
				cur = next
				improved = true
				break // restart candidate enumeration on the smaller network
			}
		}
		if !improved {
			return cur
		}
	}
}

// ShrinkFailure is Shrink with the engine's own oracle sweep as the
// predicate, preserving the specific failing oracle so the repro does not
// drift onto a different bug while it gets smaller.
func (e *Engine) ShrinkFailure(ctx context.Context, net *logic.Network, oracle string) *logic.Network {
	pred := func(n *logic.Network) bool {
		if ctx.Err() != nil {
			return false
		}
		for _, v := range e.CheckNetwork(ctx, n) {
			if v.Oracle == oracle {
				return true
			}
		}
		return false
	}
	return Shrink(net, pred, e.cfg.MaxShrinkSteps)
}

// edit is one candidate reduction, applied by rebuild.
type edit struct {
	dropOutput int // output index to delete when hasDrop
	hasDrop    bool
	retarget   map[int]int // output index -> replacement node id
	subst      map[int]int // node id -> replacement node id (an ancestor or input)
	dropFanin  map[int]int // node id -> fanin position to remove
}

// candidates enumerates reductions roughly most-aggressive-first: pruning
// whole outputs, collapsing outputs into their cone, bypassing gates near
// the outputs, then local fanin drops and input substitutions.
func candidates(n *logic.Network) []edit {
	var eds []edit
	if len(n.Outputs) > 1 {
		for i := range n.Outputs {
			eds = append(eds, edit{hasDrop: true, dropOutput: i})
		}
	}
	for i, out := range n.Outputs {
		for _, f := range n.Nodes[out.Node].Fanin {
			eds = append(eds, edit{retarget: map[int]int{i: f}})
		}
	}
	firstInput := -1
	if len(n.Inputs) > 0 {
		firstInput = n.Inputs[0]
	}
	// High ids first: bypassing a gate near the outputs deletes its whole
	// exclusive cone at once.
	for id := len(n.Nodes) - 1; id >= 0; id-- {
		node := n.Nodes[id]
		if node.Op == logic.Input || node.Op == logic.Const0 || node.Op == logic.Const1 {
			continue
		}
		for _, f := range node.Fanin {
			eds = append(eds, edit{subst: map[int]int{id: f}})
		}
		if len(node.Fanin) > node.Op.MinFanin() {
			for i := range node.Fanin {
				eds = append(eds, edit{dropFanin: map[int]int{id: i}})
			}
		}
		if firstInput >= 0 {
			eds = append(eds, edit{subst: map[int]int{id: firstInput}})
		}
	}
	return eds
}

// rebuild applies an edit and re-emits the network: substitutions are
// resolved transitively, nodes unreachable from the surviving outputs are
// dropped (including now-unused primary inputs, which keeps exhaustive
// verification cheap as the repro shrinks), and gates left with a single
// fanin by a drop collapse to their unary residue.
func rebuild(n *logic.Network, ed edit) *logic.Network {
	resolve := func(id int) int {
		for hop := 0; hop < len(n.Nodes); hop++ {
			if rep, ok := ed.subst[id]; ok && rep != id {
				id = rep
				continue
			}
			break
		}
		return id
	}
	type outSpec struct {
		name string
		node int
	}
	var outs []outSpec
	for i, out := range n.Outputs {
		if ed.hasDrop && i == ed.dropOutput {
			continue
		}
		node := out.Node
		if r, ok := ed.retarget[i]; ok {
			node = r
		}
		outs = append(outs, outSpec{out.Name, resolve(node)})
	}
	// Effective fanin of a node under the edit.
	fanin := func(id int) []int {
		node := n.Nodes[id]
		fs := make([]int, 0, len(node.Fanin))
		drop, hasDrop := ed.dropFanin[id]
		for i, f := range node.Fanin {
			if hasDrop && i == drop {
				continue
			}
			fs = append(fs, resolve(f))
		}
		return fs
	}
	// Mark live nodes.
	live := make([]bool, len(n.Nodes))
	var mark func(id int)
	mark = func(id int) {
		if live[id] {
			return
		}
		live[id] = true
		for _, f := range fanin(id) {
			mark(f)
		}
	}
	for _, o := range outs {
		mark(o.node)
	}
	// Re-emit in topological (id) order.
	out := logic.New(n.Name)
	remap := make([]int, len(n.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	for id, node := range n.Nodes {
		if !live[id] {
			continue
		}
		switch node.Op {
		case logic.Input:
			remap[id] = out.AddInput(node.Name)
		case logic.Const0, logic.Const1:
			remap[id] = out.AddConst(node.Op == logic.Const1)
		default:
			fs := fanin(id)
			mapped := make([]int, len(fs))
			for i, f := range fs {
				mapped[i] = remap[f]
			}
			op := node.Op
			if len(mapped) == 1 && op.MinFanin() > 1 {
				// A binary-or-wider gate reduced to one fanin: keep its
				// polarity as a unary residue. (Op.Inverting is false for
				// Xnor, but a one-input XNOR is still a complement.)
				switch op {
				case logic.Nand, logic.Nor, logic.Xnor:
					op = logic.Not
				default:
					op = logic.Buf
				}
			}
			remap[id] = out.AddGate(op, mapped...)
		}
	}
	for _, o := range outs {
		out.AddOutput(o.name, remap[o.node])
	}
	return out
}
