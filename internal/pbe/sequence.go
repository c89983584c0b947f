package pbe

import (
	"soidomino/internal/sp"
)

// Sequence-aware discharge pruning: the paper's §VII future work. The
// worst-case analysis (Analyze) discharges every structurally susceptible
// junction, but "breakdown will only occur for a particular sequence of
// input logic values". A junction's discharge device can be dropped when
// no input assignment can charge the body of any transistor whose source
// is that junction:
//
//   - the body of an off device X (source p, drain u) charges only while
//     both p and u are driven high, i.e. connected to the (high) dynamic
//     node through conducting transistors;
//   - every charge path contributes a conjunction of input literals (a
//     cube), and X itself contributes the complement of its own literal
//     (X must be off);
//   - if every (path-to-p, path-to-u) pair conflicts — e.g. the only way
//     to raise p goes through the select literal s while X is gated by s
//     itself, as in multiplexer and XOR structures — the body can never
//     charge and the junction is provably unexcitable.
//
// Signals driven by other domino gates are treated as free variables,
// which is conservative: pruning only ever happens when a literal and its
// complement collide, and complemented literals exist only for primary
// inputs in a unate network.

// literal is a leaf's driver (its sp.Node Arg: a gate id, or a primary
// input index complemented) with polarity. Gate-output signals are never
// negated in a unate mapping.
type literal struct {
	signal int32
	neg    bool
}

// cube is a satisfiable conjunction of literals, each signal at most
// once.
type cube []literal

// admits reports whether c ∧ l is satisfiable, and whether l's signal is
// already in c (so c ∧ l is c).
func (c cube) admits(l literal) (ok, present bool) {
	for _, m := range c {
		if m.signal == l.signal {
			return m.neg == l.neg, true
		}
	}
	return true, false
}

// meets reports whether c ∧ d is satisfiable.
func (c cube) meets(d cube) bool {
	for _, l := range d {
		if ok, _ := c.admits(l); !ok {
			return false
		}
	}
	return true
}

// spGraph is the node/edge view of a pulldown span, mirroring the
// transistor netlist: nodes are the top node, the bottom node and the
// series junctions; edges are transistors. It is built once per span
// and asked about each of its points (excitable).
type spGraph struct {
	top, bottom int
	edges       []spEdge
	// adj[n] lists edges incident to n. Conduction is bidirectional: a
	// node can be charged through a sibling branch from below (the
	// paper's fig. 4(a) scenario), so paths are enumerated undirected.
	adj [][]int
	// junction maps an analysis Point to its graph node.
	junction map[Point]int

	// pathCubes' scratch: the nodes on the path being walked and the
	// path's cube.
	visited []bool
	path    cube
}

type spEdge struct {
	upper, lower int
	lit          literal
}

// buildGraph lays the span out between fresh top and bottom nodes.
func buildGraph(s sp.Span) *spGraph {
	g := &spGraph{junction: make(map[Point]int)}
	g.top = g.node()
	g.bottom = g.node()
	g.emit(s, len(s)-1, g.top, g.bottom)
	g.visited = make([]bool, len(g.adj))
	return g
}

func (g *spGraph) node() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

func (g *spGraph) emit(s sp.Span, i, top, bottom int) {
	n := s[i]
	switch n.Kind {
	case sp.Leaf:
		id := len(g.edges)
		g.edges = append(g.edges, spEdge{
			upper: top, lower: bottom,
			lit: literal{signal: n.Arg, neg: n.Negated},
		})
		g.adj[top] = append(g.adj[top], id)
		g.adj[bottom] = append(g.adj[bottom], id)
	case sp.Parallel:
		for _, c := range s.Children(i, nil) {
			g.emit(s, c, top, bottom)
		}
	case sp.Series:
		prev := top
		children := s.Children(i, nil)
		for k, c := range children {
			next := bottom
			if k < len(children)-1 {
				next = g.node()
				g.junction[Point{Node: int32(i), Below: int32(k)}] = next
			}
			g.emit(s, c, prev, next)
			prev = next
		}
	}
}

// pathCubes enumerates the satisfiable cubes of simple conduction paths
// from the top node to target, excluding paths through the banned edge.
// Paths are undirected: charge can descend a sibling branch and climb to
// the target from below. The cubes share one literal store. The bound
// caps enumeration; on overflow a nil slice with ok=false is returned
// and the caller must keep the discharge (conservative).
func (g *spGraph) pathCubes(target, banned int, bound int) ([]cube, bool) {
	var out []cube
	var store []literal
	var walk func(n int) bool
	walk = func(n int) bool {
		if n == target {
			at := len(store)
			store = append(store, g.path...)
			out = append(out, store[at:len(store):len(store)])
			return len(out) <= bound
		}
		g.visited[n] = true
		defer func() { g.visited[n] = false }()
		for _, eid := range g.adj[n] {
			if eid == banned {
				continue
			}
			e := g.edges[eid]
			next := e.lower
			if next == n {
				next = e.upper
			}
			if g.visited[next] {
				continue
			}
			ok, present := g.path.admits(e.lit)
			if !ok {
				continue
			}
			if !present {
				g.path = append(g.path, e.lit)
			}
			more := walk(next)
			if !present {
				g.path = g.path[:len(g.path)-1]
			}
			if !more {
				return false
			}
		}
		return true
	}
	g.path = g.path[:0]
	if !walk(g.top) {
		return nil, false
	}
	return out, true
}

// Excitable reports whether the junction at the given point can ever see
// a PBE body-charging scenario: some device X with source at the junction
// can be off while both its source and drain are driven high. The
// enumeration bound keeps worst-case cost tame; an overflow reports
// excitable (keep the discharge).
func Excitable(root sp.Span, pt Point, bound int) bool {
	return buildGraph(root).excitable(pt, bound)
}

// excitable is Excitable over the span's graph.
func (g *spGraph) excitable(pt Point, bound int) bool {
	if bound <= 0 {
		bound = 256
	}
	p, ok := g.junction[pt]
	if !ok {
		return true // unknown point: keep the discharge
	}
	for eid, e := range g.edges {
		if e.lower != p {
			continue // X must have its source at the junction
		}
		// X off: its own literal complemented.
		xOff := literal{signal: e.lit.signal, neg: !e.lit.neg}
		srcPaths, okSrc := g.pathCubes(p, eid, bound)
		if !okSrc {
			return true
		}
		drainPaths, okDrain := g.pathCubes(e.upper, eid, bound)
		if !okDrain {
			return true
		}
		for _, sc := range srcPaths {
			if ok, _ := sc.admits(xOff); !ok {
				continue
			}
			for _, dc := range drainPaths {
				if ok, _ := dc.admits(xOff); ok && sc.meets(dc) {
					return true
				}
			}
		}
	}
	return false
}

// PruneUnexcitable filters a gate's discharge points down to those whose
// PBE scenario is actually satisfiable (paper §VII). The returned slice
// preserves order. The span's graph is built once for all the points.
func PruneUnexcitable(root sp.Span, points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	g := buildGraph(root)
	var kept []Point
	for _, pt := range points {
		if g.excitable(pt, 0) {
			kept = append(kept, pt)
		}
	}
	return kept
}
