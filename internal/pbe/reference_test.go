package pbe

import "soidomino/internal/sp"

// The reference recursive tree walks: the pointer-tree forms of the sp
// metrics and of this package's analyses, kept as oracles for the flat
// implementations (TestAnalyzeMatchesReferenceQuick, FuzzFlatPulldown).
// Each works on a fixture tree; a junction is named by the postorder
// index its series node takes in sp.Flatten's span.

// postorder numbers t's nodes as sp.Flatten lays them out.
func postorder(t *sp.Tree) map[*sp.Tree]int32 {
	idx := map[*sp.Tree]int32{}
	var walk func(*sp.Tree)
	walk = func(t *sp.Tree) {
		for _, c := range t.Children {
			walk(c)
		}
		idx[t] = int32(len(idx))
	}
	walk(t)
	return idx
}

func refWidth(t *sp.Tree) int {
	switch t.Kind {
	case sp.Leaf:
		return 1
	case sp.Series:
		w := 0
		for _, c := range t.Children {
			w = max(w, refWidth(c))
		}
		return w
	}
	w := 0
	for _, c := range t.Children {
		w += refWidth(c)
	}
	return w
}

func refHeight(t *sp.Tree) int {
	switch t.Kind {
	case sp.Leaf:
		return 1
	case sp.Series:
		h := 0
		for _, c := range t.Children {
			h += refHeight(c)
		}
		return h
	}
	h := 0
	for _, c := range t.Children {
		h = max(h, refHeight(c))
	}
	return h
}

func refTransistors(t *sp.Tree) int {
	if t.Kind == sp.Leaf {
		return 1
	}
	n := 0
	for _, c := range t.Children {
		n += refTransistors(c)
	}
	return n
}

func refHasPI(t *sp.Tree) bool {
	if t.Kind == sp.Leaf {
		return t.GateRef < 0
	}
	for _, c := range t.Children {
		if refHasPI(c) {
			return true
		}
	}
	return false
}

// refConducts evaluates t with every leaf's value looked up by its
// signal name.
func refConducts(t *sp.Tree, values map[string]bool) bool {
	switch t.Kind {
	case sp.Leaf:
		return values[t.Signal] != t.Negated
	case sp.Series:
		for _, c := range t.Children {
			if !refConducts(c, values) {
				return false
			}
		}
		return true
	}
	for _, c := range t.Children {
		if refConducts(c, values) {
			return true
		}
	}
	return false
}

// refAnalyze is the original recursive Analyze — a fresh pair of lists per
// node, concatenated on the way up — visiting every composition's
// children last to first, as Analyze documents.
func refAnalyze(t *sp.Tree) Analysis {
	idx := postorder(t)
	var walk func(*sp.Tree) Analysis
	walk = func(t *sp.Tree) Analysis {
		switch t.Kind {
		case sp.Leaf:
			return Analysis{}
		case sp.Parallel:
			var a Analysis
			for i := len(t.Children) - 1; i >= 0; i-- {
				ca := walk(t.Children[i])
				a.Immediate = append(a.Immediate, ca.Immediate...)
				a.Potential = append(a.Potential, ca.Potential...)
			}
			a.ParB = true
			return a
		}
		n := len(t.Children)
		acc := walk(t.Children[n-1])
		for i := n - 2; i >= 0; i-- {
			top := walk(t.Children[i])
			junction := Point{Node: idx[t], Below: int32(i)}
			acc.Immediate = append(acc.Immediate, top.Immediate...)
			if top.ParB {
				acc.Immediate = append(acc.Immediate, top.Potential...)
				acc.Immediate = append(acc.Immediate, junction)
			} else {
				acc.Potential = append(acc.Potential, top.Potential...)
				acc.Potential = append(acc.Potential, junction)
			}
		}
		return acc
	}
	return walk(t)
}

// refRearrange is the pointer-tree Rearrange: the root stack's children
// stably sorted by (par_b, potential count).
func refRearrange(t *sp.Tree) *sp.Tree {
	if t.Kind != sp.Series {
		return t
	}
	return &sp.Tree{Kind: sp.Series, Children: refSorted(t.Children)}
}

// refRearrangeDeep sorts every series stack, children before parents.
func refRearrangeDeep(t *sp.Tree) *sp.Tree {
	if t.Kind == sp.Leaf {
		return t
	}
	children := make([]*sp.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = refRearrangeDeep(c)
	}
	if t.Kind == sp.Series {
		children = refSorted(children)
	}
	return &sp.Tree{Kind: t.Kind, Children: children}
}

func refSorted(children []*sp.Tree) []*sp.Tree {
	key := func(c *sp.Tree) int {
		a := refAnalyze(c)
		k := len(a.Potential)
		if a.ParB {
			k += 1 << 20
		}
		return k
	}
	sorted := append([]*sp.Tree(nil), children...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && key(sorted[j]) < key(sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted
}

// refPrune is the pointer-tree PruneUnexcitable: the charge-path
// enumeration of sequence.go over a graph laid out from the tree, with
// literals keyed by signal name.
func refPrune(t *sp.Tree, points []Point) []Point {
	var kept []Point
	for _, pt := range points {
		if refExcitable(t, pt) {
			kept = append(kept, pt)
		}
	}
	return kept
}

type refEdge struct {
	upper, lower int
	signal       string
	neg          bool
}

func refExcitable(t *sp.Tree, pt Point) bool {
	const bound = 256
	idx := postorder(t)
	var edges []refEdge
	adj := map[int][]int{}
	junction := map[Point]int{}
	nodes := 2 // 0 is the top node, 1 the bottom one
	var emit func(t *sp.Tree, top, bottom int)
	emit = func(t *sp.Tree, top, bottom int) {
		switch t.Kind {
		case sp.Leaf:
			adj[top] = append(adj[top], len(edges))
			adj[bottom] = append(adj[bottom], len(edges))
			edges = append(edges, refEdge{top, bottom, t.Signal, t.Negated})
		case sp.Parallel:
			for _, c := range t.Children {
				emit(c, top, bottom)
			}
		case sp.Series:
			prev := top
			for i, c := range t.Children {
				next := bottom
				if i < len(t.Children)-1 {
					next = nodes
					nodes++
					junction[Point{Node: idx[t], Below: int32(i)}] = next
				}
				emit(c, prev, next)
				prev = next
			}
		}
	}
	emit(t, 0, 1)
	type cube = map[string]bool
	with := func(c cube, signal string, neg bool) (cube, bool) {
		if pol, ok := c[signal]; ok {
			return c, pol == neg
		}
		out := cube{signal: neg}
		for k, v := range c {
			out[k] = v
		}
		return out, true
	}
	paths := func(target, banned int) ([]cube, bool) {
		var out []cube
		visited := map[int]bool{}
		var walk func(n int, c cube) bool
		walk = func(n int, c cube) bool {
			if n == target {
				out = append(out, c)
				return len(out) <= bound
			}
			visited[n] = true
			defer delete(visited, n)
			for _, eid := range adj[n] {
				e := edges[eid]
				next := e.lower
				if next == n {
					next = e.upper
				}
				if eid == banned || visited[next] {
					continue
				}
				if nc, ok := with(c, e.signal, e.neg); ok && !walk(next, nc) {
					return false
				}
			}
			return true
		}
		return out, walk(0, cube{})
	}
	p, ok := junction[pt]
	if !ok {
		return true
	}
	for eid, e := range edges {
		if e.lower != p {
			continue
		}
		src, okSrc := paths(p, eid)
		drain, okDrain := paths(e.upper, eid)
		if !okSrc || !okDrain {
			return true
		}
		for _, sc := range src {
			scx, sat := with(sc, e.signal, !e.neg)
			if !sat {
				continue
			}
			for _, dc := range drain {
				merged := true
				for k, v := range dc {
					if pol, ok := scx[k]; ok && pol != v {
						merged = false
						break
					}
				}
				if merged {
					return true
				}
			}
		}
	}
	return false
}
