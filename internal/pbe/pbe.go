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
// Analyze mirrors the paper's {p_dis, par_b} bookkeeping on concrete trees:
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

// Point identifies a series junction: the circuit node between
// Group.Children[Below] and Group.Children[Below+1].
type Point struct {
	Group *sp.Tree // a Series node
	Below int      // junction sits directly below Children[Below]
}

// String renders the junction for diagnostics.
func (p Point) String() string {
	return fmt.Sprintf("junction below %s in %s", p.Group.Children[p.Below], p.Group)
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

// Analyze computes the PBE bookkeeping for a pulldown structure in
// destination-passing form: it appends the structure's immediate
// junctions to imm and its potential ones to pot, and returns the
// extended slices with par_b. imm and pot must not share a backing
// array; pass nil, nil for fresh slices, or buffers truncated to length
// zero to analyze tree after tree without allocating. For a complete gate
// (whose bottom is grounded through the foot) the devices to insert are
// exactly Analysis.Immediate; see GateDischargePoints.
func Analyze(t *sp.Tree, imm, pot []Point) Analysis {
	a := Analysis{Immediate: imm, Potential: pot}
	a.ParB = a.add(t)
	return a
}

// add appends t's immediate and potential junctions to a and returns t's
// par_b. Because the accumulated lists live in a, a series node never
// builds per-child lists: a top child's potential points are appended to
// a.Potential and, when the child turns out to have a parallel bottom,
// moved to a.Immediate.
func (a *Analysis) add(t *sp.Tree) bool {
	switch t.Kind {
	case sp.Leaf:
		return false
	case sp.Parallel:
		for _, c := range t.Children {
			a.add(c)
		}
		return true
	case sp.Series:
		// Right fold, bottom-up, mirroring the paper's combine_and: the
		// accumulated structure is the "bottom", each next child the "top".
		// The stack's par_b is the bottom-most child's.
		n := len(t.Children)
		parB := a.add(t.Children[n-1])
		for i := n - 2; i >= 0; i-- {
			mark := len(a.Potential)
			junction := Point{Group: t, Below: i}
			if a.add(t.Children[i]) {
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
		return parB
	}
	panic(fmt.Sprintf("pbe: unknown tree kind %v", t.Kind))
}

// GateDischargePoints returns the junctions of a complete domino gate's
// pulldown network that need p-discharge transistors. The gate's bottom is
// connected to ground (directly or through the n-clock foot), so the
// potential points are safe and only the immediate ones materialize.
func GateDischargePoints(root *sp.Tree) []Point {
	return Analyze(root, nil, nil).Immediate
}

// DischargeCount is len(GateDischargePoints(root)).
func DischargeCount(root *sp.Tree) int {
	return len(GateDischargePoints(root))
}

// PotentialCount returns the paper's p_dis for a partial structure.
func PotentialCount(t *sp.Tree) int {
	return len(Analyze(t, nil, nil).Potential)
}

// Rearrange returns the tree with the gate's series stack reordered to
// move parallel sections with many potential discharge points toward
// ground: the post-processing step of RS_Map (paper §VI-A, the fig. 5
// stack switch). Only the outermost series stack — the one whose bottom
// actually reaches ground — is reordered: reordering inside a parallel
// branch cannot ground anything. The reordering is sound for domino
// pulldowns: series conduction is order-independent, and SOI's low
// diffusion capacitance makes the delay effect of reordering second-order
// (paper §III-C).
//
// Rearrange never modifies t and does not copy it: the result shares
// every subtree with t. A root stack that moves gets a new node with a
// new children slice; otherwise t itself is returned.
func Rearrange(t *sp.Tree) *sp.Tree {
	if t.Kind != sp.Series {
		return t
	}
	children, moved := sortSeriesChildren(t.Children)
	if !moved {
		return t
	}
	return &sp.Tree{Kind: sp.Series, Children: children}
}

// RearrangeDeep reorders every series group in the tree, including those
// inside parallel branches (their junctions are rescued when the branch's
// stack reaches ground, so pushing nested parallels toward branch bottoms
// pays too). This is stronger than the paper's RS_Map post-processing; the
// ablation benchmarks measure the difference. Like Rearrange it leaves t
// untouched and shares every unchanged subtree: only the nodes on a path
// to a reordered stack are rebuilt.
func RearrangeDeep(t *sp.Tree) *sp.Tree {
	if t.Kind == sp.Leaf {
		return t
	}
	children, changed := t.Children, false
	for i, c := range t.Children {
		r := RearrangeDeep(c)
		if r == c {
			continue
		}
		if !changed {
			children, changed = slices.Clone(t.Children), true
		}
		children[i] = r
	}
	if t.Kind == sp.Series {
		if sorted, moved := sortSeriesChildren(children); moved {
			children, changed = sorted, true
		}
	}
	if !changed {
		return t
	}
	return &sp.Tree{Kind: t.Kind, Children: children}
}

// sortSeriesChildren orders a series stack's children ascending by (par_b,
// potential count): structures without a parallel bottom stay near the
// top; the parallel section with the most potential points lands at the
// bottom, next to ground. The sort is stable and computes each child's
// key once. children is never modified: when the order changes the
// sorted children come back in a new slice with moved set, otherwise
// children itself is returned.
func sortSeriesChildren(children []*sp.Tree) ([]*sp.Tree, bool) {
	var buf [16]int
	keys := buf[:0]
	var a Analysis
	for _, c := range children {
		a = Analyze(c, a.Immediate[:0], a.Potential[:0])
		k := len(a.Potential)
		if c.ParallelAtBottom() {
			// par_b dominates: any parallel-at-bottom section outranks
			// any plain section.
			k += 1 << 20
		}
		keys = append(keys, k)
	}
	if slices.IsSorted(keys) {
		return children, false
	}
	sorted := slices.Clone(children)
	// Insertion sort: stable, and stacks are a handful of children.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted, true
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
