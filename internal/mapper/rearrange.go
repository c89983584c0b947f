package mapper

import (
	"fmt"
	"maps"

	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// Rearrange derives RS_Map's result from dom, a Domino_Map result, as the
// paper defines RS_Map (§VI-A): Domino_Map followed by Rearrange_Stacks
// on the finished netlist. With deep it derives RS_Map_deep's instead
// (pbe.RearrangeDeep). The result equals what RSMapContext (or
// RSMapDeepContext) returns under dom's options, and dom is not
// modified: the derived result has its own node array, gates,
// discharge points and output maps, and shares only the gates' name
// strings and the source network with dom. It is an error unless dom is
// an uncompounded Domino_Map result.
func Rearrange(dom *Result, deep bool) (*Result, error) {
	if dom.Algorithm != dominoMap.algorithm {
		return nil, fmt.Errorf("mapper: Rearrange derives from a %s result, not %s", dominoMap.algorithm, dom.Algorithm)
	}
	total := 0
	for _, g := range dom.Gates {
		if g.Compound != nil {
			return nil, fmt.Errorf("mapper: Rearrange: gate %d of %s is compound", g.ID, dom.Name)
		}
		total += len(g.Nodes)
	}
	res := *dom
	res.Algorithm = rsName(deep)
	res.OutputGate = maps.Clone(dom.OutputGate)
	res.ConstOutputs = maps.Clone(dom.ConstOutputs)
	nodes := make([]sp.Node, 0, total)
	gates := make([]Gate, len(dom.Gates))
	res.Gates = make([]*Gate, len(gates))
	for i, g := range dom.Gates {
		start := len(nodes)
		nodes = append(nodes, g.Nodes...)
		gates[i] = *g
		gates[i].Nodes = nodes[start:len(nodes):len(nodes)]
		res.Gates[i] = &gates[i]
	}
	rearrange(&res, deep)
	return &res, nil
}

// rearrange is the Rearrange_Stacks post-pass, in place: it reorders
// every gate's span (pbe.Rearrange, or pbe.RearrangeDeep when deep),
// analyzes its discharges again (pruned under SequenceAware, as
// traceback does), and rebuilds res's one discharge-point array and its
// statistics. It never touches the gates' old discharge lists, which in
// Rearrange's copies are still dom's. Reordering a series stack keeps
// each gate's shape, transistors, level and inputs, so the rest of its
// summary stands; the DP's discharge forecast no longer describes the
// reordered span, so PredictedDischarges becomes -1.
func rearrange(res *Result, deep bool) {
	reorder := pbe.Rearrange
	if deep {
		reorder = pbe.RearrangeDeep
	}
	longest := 0
	for _, g := range res.Gates {
		longest = max(longest, len(g.Nodes))
	}
	// A span has fewer junctions than nodes, so neither buffer outgrows
	// the longest span.
	scratch := make([]sp.Node, 0, longest)
	a := pbe.Analysis{Potential: make([]pbe.Point, 0, longest)}
	points := make([]pbe.Point, 0, res.Stats.TDisch)
	for _, g := range res.Gates {
		scratch = reorder(scratch[:0], g.Nodes)
		copy(g.Nodes, scratch)
		mark := len(points)
		a = pbe.Analyze(g.Nodes, points, a.Potential[:0])
		points = a.Immediate
		if res.Options.SequenceAware {
			points = append(points[:mark], pbe.PruneUnexcitable(g.Nodes, points[mark:])...)
		}
		g.Discharges = points[mark:] // its length; resliced below
		g.PredictedDischarges = -1
	}
	// points may have moved while it grew: slice each gate's list from
	// its final array, nil when empty, as traceback does.
	at := 0
	for _, g := range res.Gates {
		n := len(g.Discharges)
		g.Discharges = nil
		if n > 0 {
			g.Discharges = points[at : at+n : at+n]
		}
		at += n
	}
	res.computeStats()
}
