package mapper

import (
	"fmt"

	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// stackOrder appends a reordered copy of a gate's span s to dst: RS_Map's
// Rearrange_Stacks step, which the discharge pass applies to every
// finished gate before placing its discharges (see placeDischarges).
type stackOrder func(dst []sp.Node, s sp.Span) sp.Span

// rsOrder is RS_Map's stack order (pbe.Rearrange), or RS_Map_deep's when
// deep (pbe.RearrangeDeep).
func rsOrder(deep bool) stackOrder {
	if deep {
		return pbe.RearrangeDeep
	}
	return pbe.Rearrange
}

// placeDischarges is the discharge pass every mapper ends with (paper
// §VI-A). The finished gates are ws.gates, their spans end to end in
// ws.nodes in gate order; only the length of each gate's Nodes is read.
// The pass points each gate's Nodes at its span, reorders the span in
// place when reorder is non-nil, and appends its discharge points to
// ws.points; finishGates slices each gate's Discharges, which holds
// their number, from the copied array. Reordering a series stack keeps
// a gate's shape, transistors, level and inputs, but the DP's discharge
// forecast no longer describes it: PredictedDischarges becomes -1.
func (ws *workspace) placeDischarges(reorder stackOrder, seqAware bool) {
	ws.points = ws.points[:0]
	at := 0
	for i := range ws.gates {
		g := &ws.gates[i]
		end := at + len(g.Nodes)
		g.Nodes = ws.nodes[at:end:end]
		at = end
		if reorder != nil {
			ws.build = reorder(ws.build[:0], g.Nodes)
			copy(g.Nodes, ws.build)
			g.PredictedDischarges = -1
		}
		mark := len(ws.points)
		ws.points = pbe.Discharges(ws.points, g.Nodes, seqAware, &ws.pot)
		g.Discharges = ws.points[mark:]
	}
}

// Rearrange derives RS_Map's result from dom, a Domino_Map result, as the
// paper defines RS_Map (§VI-A): Domino_Map followed by Rearrange_Stacks
// on the finished netlist. With deep it derives RS_Map_deep's instead
// (pbe.RearrangeDeep). It copies dom's gates into a pooled workspace
// and runs the discharge pass over the copy, as RSMapContext (or
// RSMapDeepContext) runs it over its traced gates, so the result equals
// the direct run's under dom's options. dom is not modified: the derived
// result has its own node array, gates and discharge points, and shares
// only the output maps, the gates' name strings and the source network
// with dom, none of which a mapper writes after traceback. It is an
// error unless dom is an uncompounded Domino_Map result.
func Rearrange(dom *Result, deep bool) (*Result, error) {
	if dom.Algorithm != dominoMap.algorithm {
		return nil, fmt.Errorf("mapper: Rearrange derives from a %s result, not %s", dominoMap.algorithm, dom.Algorithm)
	}
	for _, g := range dom.Gates {
		if g.Compound != nil {
			return nil, fmt.Errorf("mapper: Rearrange: gate %d of %s is compound", g.ID, dom.Name)
		}
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	ws.nodes, ws.gates = ws.nodes[:0], ws.gates[:0]
	for _, g := range dom.Gates {
		ws.nodes = append(ws.nodes, g.Nodes...)
		ws.gates = append(ws.gates, *g)
	}
	ws.placeDischarges(rsOrder(deep), dom.Options.SequenceAware)
	res := *dom
	res.Algorithm = rsName(deep)
	res.Gates = ws.finishGates()
	res.computeStats()
	return &res, nil
}
