// Package pbe implements the paper's structural model of the Parasitic
// Bipolar Effect on series-parallel pulldown trees (§III, §V).
//
// The PBE can only be excited in the presence of a parallel stack: an off
// transistor high in a stack whose source and drain float high charges its
// body, and when the node below the stack is pulled low the lateral bipolar
// device discharges the dynamic node. Two structural facts drive the model:
//
//   - The bottom common node of a parallel stack that is NOT directly
//     connected to the gate's ground must be pre-discharged every cycle,
//     and so must every internal series junction inside that stack's
//     branches (they float high through partially-on branches).
//   - If the parallel stack's bottom IS the gate's ground, none of those
//     points can charge and no discharge devices are needed (paper fig. 5).
//
// Analyze mirrors the paper's {p_dis, par_b} bookkeeping on concrete pulldowns:
// it returns the junctions that must be discharged regardless of what
// happens below ("immediate") and those that are rescued if the structure's
// bottom eventually reaches ground ("potential").
package pbe

import (
	"fmt"
	"slices"
	"strings"

	"soidomino/internal/sp"
)

// Point identifies a series junction of a pulldown span: the circuit node
// directly below child Below (0 is the top child) of the series node at
// flat index Node.
type Point struct {
	Node  int32
	Below int32
}

// String renders the junction for diagnostics.
func (p Point) String() string {
	return fmt.Sprintf("junction below child %d of series node %d", p.Below, p.Node)
}

// Analysis is the result of analyzing a (partial) pulldown structure.
type Analysis struct {
	// Immediate junctions must carry a p-discharge transistor no matter
	// where the structure ends up.
	Immediate []Point
	// Potential junctions need a p-discharge transistor only if the
	// structure's bottom is never connected directly to ground: the
	// paper's p_dis.
	Potential []Point
	// ParB is the paper's par_b: the structure's bottom is a parallel
	// stack.
	ParB bool
}

// Analyze computes the PBE bookkeeping for a valid pulldown span in
// destination-passing form: it appends the structure's immediate
// junctions to imm and its potential ones to pot, and returns the
// extended slices with par_b. imm and pot must not share a backing
// array; pass nil, nil for fresh slices, or buffers truncated to length
// zero to analyze span after span without allocating. The walk visits
// every composition's children last to first, so a series stack is
// folded bottom-up, and the points come in that order. For a complete
// gate (whose bottom is grounded through the foot) the devices to insert
// are exactly Analysis.Immediate; see GateDischargePoints.
func Analyze(s sp.Span, imm, pot []Point) Analysis {
	a := Analysis{Immediate: imm, Potential: pot}
	a.ParB, _ = a.add(s, len(s)-1)
	return a
}

// add appends the immediate and potential junctions of the subtree
// rooted at s[i] to a and returns its par_b and the index of its first
// node. Because the accumulated lists live in a, a series node never
// builds per-child lists: a top child's potential points are appended to
// a.Potential and, when the child turns out to have a parallel bottom,
// moved to a.Immediate.
func (a *Analysis) add(s sp.Span, i int) (bool, int) {
	n := s[i]
	switch n.Kind {
	case sp.Leaf:
		return false, i
	case sp.Parallel:
		j := i
		for k := 0; k < int(n.Arg); k++ {
			_, j = a.add(s, j-1)
		}
		return true, j
	case sp.Series:
		// Right fold, bottom-up, mirroring the paper's combine_and: the
		// accumulated structure is the "bottom", each next child the "top".
		// The stack's par_b is the bottom-most child's.
		parB, j := a.add(s, i-1)
		for below := int(n.Arg) - 2; below >= 0; below-- {
			mark := len(a.Potential)
			junction := Point{Node: int32(i), Below: int32(below)}
			var top bool
			if top, j = a.add(s, j-1); top {
				// The top's parallel stack can never reach ground: its
				// potential points and its bottom common node (this
				// junction) are discharged now.
				a.Immediate = append(a.Immediate, a.Potential[mark:]...)
				a.Immediate = append(a.Immediate, junction)
				a.Potential = a.Potential[:mark]
			} else {
				// Nothing materializes; the new junction becomes
				// potential along with the top's.
				a.Potential = append(a.Potential, junction)
			}
		}
		return parB, j
	}
	panic(fmt.Sprintf("pbe: unknown node kind %v", n.Kind))
}

// GateDischargePoints returns the junctions of a complete domino gate's
// pulldown network that need p-discharge transistors. The gate's bottom is
// connected to ground (directly or through the n-clock foot), so the
// potential points are safe and only the immediate ones materialize.
func GateDischargePoints(s sp.Span) []Point {
	return Analyze(s, nil, nil).Immediate
}

// Discharges appends to dst the junctions of a complete domino gate's
// pulldown s that carry a p-discharge transistor: Analyze's immediate
// points, in its order, and with seqAware only those PruneUnexcitable
// keeps. *pot is the caller's scratch for the potential points, grown as
// needed and kept for the next call. It is the one statement of a gate's
// discharge list, for the mappers, compound stages and audits alike.
func Discharges(dst []Point, s sp.Span, seqAware bool, pot *[]Point) []Point {
	mark := len(dst)
	a := Analyze(s, dst, (*pot)[:0])
	*pot = a.Potential
	if seqAware {
		return append(a.Immediate[:mark], PruneUnexcitable(s, a.Immediate[mark:])...)
	}
	return a.Immediate
}

// PotentialCount returns the paper's p_dis for a partial structure:
// len(Analyze(s, nil, nil).Potential), counted without listing the points.
func PotentialCount(s sp.Span) int {
	n, _, _ := potential(s, len(s)-1)
	return n
}

// potential counts the potential points of the subtree rooted at s[i] as
// Analysis.add lists them, and returns the count with its par_b and the
// index of its first node.
func potential(s sp.Span, i int) (int, bool, int) {
	switch n := s[i]; n.Kind {
	case sp.Parallel:
		sum, j := 0, i
		for k := 0; k < int(n.Arg); k++ {
			var c int
			c, _, j = potential(s, j-1)
			sum += c
		}
		return sum, true, j
	case sp.Series:
		sum, parB, j := potential(s, i-1)
		for k := 1; k < int(n.Arg); k++ {
			c, top, start := potential(s, j-1)
			if !top {
				// A top with a parallel bottom discharges its points and
				// the junction; any other keeps both potential.
				sum += c + 1
			}
			j = start
		}
		return sum, parB, j
	}
	return 0, false, i
}

// Rearrange appends s to dst with the gate's series stack reordered to
// move parallel sections with many potential discharge points toward
// ground: the post-processing step of RS_Map (paper §VI-A, the fig. 5
// stack switch). Only the outermost series stack — the one whose bottom
// actually reaches ground — is reordered: reordering inside a parallel
// branch cannot ground anything. The reordering is sound for domino
// pulldowns: series conduction is order-independent, and SOI's low
// diffusion capacitance makes the delay effect of reordering second-order
// (paper §III-C). s is never modified.
func Rearrange(dst []sp.Node, s sp.Span) sp.Span {
	root := len(s) - 1
	if s[root].Kind != sp.Series {
		return append(dst, s...)
	}
	base := len(dst)
	dst = append(dst, s...)
	sortSeriesChildren(dst[base:], root)
	return dst
}

// RearrangeDeep appends s to dst with every series group reordered,
// including those inside parallel branches (their junctions are rescued
// when the branch's stack reaches ground, so pushing nested parallels
// toward branch bottoms pays too). This is stronger than the paper's
// RS_Map post-processing; the ablation benchmarks measure the difference.
// Like Rearrange it leaves s untouched. Children are reordered before
// their parent, so every stack is sorted by the keys of its final
// children.
func RearrangeDeep(dst []sp.Node, s sp.Span) sp.Span {
	base := len(dst)
	dst = append(dst, s...)
	out := dst[base:]
	for i, n := range out {
		if n.Kind == sp.Series {
			sortSeriesChildren(out, i)
		}
	}
	return dst
}

// sortSeriesChildren reorders, in place, the children of the series node
// s[i] ascending by (par_b, potential count): structures without a
// parallel bottom stay near the top; the parallel section with the most
// potential points lands at the bottom, next to ground. The sort is
// stable and computes each child's key once. Reordering a stack's
// children moves whole sub-spans inside the stack's own span, so no
// other node moves.
func sortSeriesChildren(s sp.Span, i int) {
	type child struct{ start, end, key int }
	var childBuf [16]child
	children := childBuf[:0]
	for k, j := 0, i-1; k < int(s[i].Arg); k++ {
		key, parB, start := potential(s, j)
		if parB {
			// par_b dominates: any parallel-at-bottom section outranks
			// any plain section.
			key += 1 << 20
		}
		children = append(children, child{start, j + 1, key})
		j = start - 1
	}
	slices.Reverse(children) // top to bottom
	if slices.IsSortedFunc(children, func(a, b child) int { return a.key - b.key }) {
		return
	}
	// Insertion sort: stable, and stacks are a handful of children.
	for a := 1; a < len(children); a++ {
		for b := a; b > 0 && children[b].key < children[b-1].key; b-- {
			children[b], children[b-1] = children[b-1], children[b]
		}
	}
	var oldBuf [64]sp.Node
	first := s.Start(i)
	old := append(oldBuf[:0], s[first:i]...)
	at := first
	for _, c := range children {
		at += copy(s[at:], old[c.start-first:c.end-first])
	}
}

// Describe renders a list of points, one per line, for reports and tests.
func Describe(points []Point) string {
	var b strings.Builder
	for _, p := range points {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}
