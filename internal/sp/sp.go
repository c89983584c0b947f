// Package sp models the series-parallel nMOS pulldown network of a domino
// gate. Series composition stacks structures between the dynamic node
// (top) and ground (bottom); parallel composition places them side by
// side.
//
// A pulldown has one working form, the flat Span: its nodes in postorder,
// each a small pointer-free Node. The mappers write every gate's span once
// into one array per result, and the PBE analysis (internal/pbe), the
// audit, the transistor-level netlist (internal/netlist) and the delay
// and power models read it there. Tree is the constructor and rendering
// form: tests and figure fixtures build trees with NewSeries/NewParallel
// and Flatten them, and diagnostics render a span through Span.Tree.
package sp

import (
	"fmt"
	"slices"
	"strings"
)

// Kind discriminates pulldown nodes.
type Kind uint8

const (
	// Leaf is a single nMOS transistor driven by a signal.
	Leaf Kind = iota
	// Series stacks children vertically; the first child is at the top
	// (nearest the dynamic node), the last one touches the bottom.
	Series
	// Parallel places children side by side between two shared nodes.
	Parallel
)

func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Series:
		return "series"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one node of a flat pulldown. A composition's Arg is its child
// count; a leaf's Arg names its driver: a domino gate id g as g, a
// primary input index i as ^i (so every input-driven leaf is negative).
// Negated marks a complemented primary-input literal.
type Node struct {
	Kind    Kind
	Negated bool
	Arg     int32
}

// GateLeaf is a transistor driven by domino gate id.
func GateLeaf(id int) Node { return Node{Kind: Leaf, Arg: int32(id)} }

// InputLeaf is a transistor driven by primary input index i, or by its
// complement when negated.
func InputLeaf(i int, negated bool) Node { return Node{Kind: Leaf, Negated: negated, Arg: ^int32(i)} }

// Compose is a series or parallel node over the children before it.
func Compose(kind Kind, children int) Node { return Node{Kind: kind, Arg: int32(children)} }

// Gate returns the id of the gate driving a leaf, or -1 when a primary
// input drives it.
func (n Node) Gate() int {
	if n.Arg < 0 {
		return -1
	}
	return int(n.Arg)
}

// Input returns the index of the primary input driving a leaf, or -1
// when a gate drives it.
func (n Node) Input() int {
	if n.Arg >= 0 {
		return -1
	}
	return int(^n.Arg)
}

// FromPI reports whether a leaf is driven by a primary input (possibly
// inverted).
func (n Node) FromPI() bool { return n.Arg < 0 }

// Span is one pulldown network in postorder: every composition follows
// its children, which are contiguous sub-spans in top-to-bottom (for
// series) or left-to-right order, so the root is the last node and the
// subtree of any node is the span that ends at it.
type Span []Node

// Start returns the index of the first node of the subtree rooted at
// s[i].
func (s Span) Start(i int) int {
	for need := 1; ; i-- {
		need--
		if s[i].Kind != Leaf {
			need += int(s[i].Arg)
		}
		if need == 0 {
			return i
		}
	}
}

// Children appends the indices of s[i]'s children, first (top) to last
// (bottom), to dst.
func (s Span) Children(i int, dst []int) []int {
	if s[i].Kind == Leaf {
		return dst
	}
	base := len(dst)
	for k, j := 0, i-1; k < int(s[i].Arg); k++ {
		dst = append(dst, j)
		j = s.Start(j) - 1
	}
	slices.Reverse(dst[base:])
	return dst
}

// Metrics are a pulldown's dimensions: the paper's {W,H} tuple, its
// transistor count and whether a primary input drives any leaf.
type Metrics struct {
	// Width is the maximum number of side-by-side conduction paths: 1
	// for a leaf, the max over children for series, the sum for
	// parallel.
	Width int
	// Height is the maximum number of stacked transistors on any path:
	// 1 for a leaf, the sum over children for series, the max for
	// parallel.
	Height      int
	Transistors int
	// HasPI gates need an n-clock foot transistor (paper: listing 2,
	// create_domino_gate).
	HasPI bool
}

// Measure checks the span's structure and measures it in one pass.
// A valid span is exactly one tree whose compositions have at least two
// children and no child of their own kind (nested same-kind composition
// is flattened).
func (s Span) Measure() (Metrics, error) {
	if len(s) == 0 {
		return Metrics{}, fmt.Errorf("sp: empty span")
	}
	m, start, err := s.measure(len(s) - 1)
	if err == nil && start != 0 {
		err = fmt.Errorf("sp: %d nodes precede the root's subtree", start)
	}
	return m, err
}

func (s Span) measure(i int) (Metrics, int, error) {
	n := s[i]
	switch n.Kind {
	case Leaf:
		return Metrics{Width: 1, Height: 1, Transistors: 1, HasPI: n.FromPI()}, i, nil
	case Series, Parallel:
	default:
		return Metrics{}, i, fmt.Errorf("sp: unknown kind %v at node %d", n.Kind, i)
	}
	if n.Arg < 2 {
		return Metrics{}, i, fmt.Errorf("sp: %s with %d children at node %d", n.Kind, n.Arg, i)
	}
	var m Metrics
	j := i
	for k := 0; k < int(n.Arg); k++ {
		if j == 0 {
			return Metrics{}, i, fmt.Errorf("sp: %s at node %d lacks %d of its children", n.Kind, i, int(n.Arg)-k)
		}
		if s[j-1].Kind == n.Kind {
			return Metrics{}, i, fmt.Errorf("sp: unflattened nested %s at node %d", n.Kind, j-1)
		}
		c, start, err := s.measure(j - 1)
		if err != nil {
			return Metrics{}, i, err
		}
		if n.Kind == Series {
			m.Width = max(m.Width, c.Width)
			m.Height += c.Height
		} else {
			m.Width += c.Width
			m.Height = max(m.Height, c.Height)
		}
		m.Transistors += c.Transistors
		m.HasPI = m.HasPI || c.HasPI
		j = start
	}
	return m, j, nil
}

// Validate checks the span's structure (see Measure).
func (s Span) Validate() error {
	_, err := s.Measure()
	return err
}

// Width is the W of the paper's {W,H} tuples (see Metrics) of a valid
// span.
func (s Span) Width() int {
	m, _ := s.Measure()
	return m.Width
}

// Height is the H of the paper's {W,H} tuples (see Metrics) of a valid
// span.
func (s Span) Height() int {
	m, _ := s.Measure()
	return m.Height
}

// Transistors counts the leaves of the span.
func (s Span) Transistors() int {
	n := 0
	for _, x := range s {
		if x.Kind == Leaf {
			n++
		}
	}
	return n
}

// HasPI reports whether any leaf is driven by a primary input.
func (s Span) HasPI() bool {
	for _, x := range s {
		if x.Kind == Leaf && x.FromPI() {
			return true
		}
	}
	return false
}

// ParallelAtBottom reports whether the structure's bottom is a parallel
// stack: the paper's par_b flag. A leaf is false; a parallel node is true;
// a series node inherits from its bottom-most child, which ends right
// before it.
func (s Span) ParallelAtBottom() bool {
	i := len(s) - 1
	for s[i].Kind == Series {
		i--
	}
	return s[i].Kind == Parallel
}

// ContainsParallel reports whether any parallel composition appears in
// the span. Per the paper (§V), the PBE can only be excited in the
// presence of at least one parallel stack.
func (s Span) ContainsParallel() bool {
	for _, x := range s {
		if x.Kind == Parallel {
			return true
		}
	}
	return false
}

// Conducts evaluates whether the pulldown network conducts when primary
// input i carries inputs[i] and gate g's output gates[g]. Negated leaves
// conduct when their input is false.
func (s Span) Conducts(inputs, gates []bool) bool {
	v, _ := s.conducts(len(s)-1, inputs, gates)
	return v
}

func (s Span) conducts(i int, inputs, gates []bool) (bool, int) {
	n := s[i]
	if n.Kind == Leaf {
		if g := n.Gate(); g >= 0 {
			return gates[g], i
		}
		return inputs[n.Input()] != n.Negated, i
	}
	series := n.Kind == Series
	v, j := series, i
	for k := 0; k < int(n.Arg); k++ {
		var c bool
		c, j = s.conducts(j-1, inputs, gates)
		if series {
			v = v && c
		} else {
			v = v || c
		}
	}
	return v, j
}

// Tree rebuilds the rendering form of a valid span; signal names each
// leaf's driver.
func (s Span) Tree(signal func(Node) string) *Tree {
	t, _ := s.tree(len(s)-1, signal)
	return t
}

func (s Span) tree(i int, signal func(Node) string) (*Tree, int) {
	n := s[i]
	if n.Kind == Leaf {
		return &Tree{Kind: Leaf, Signal: signal(n), Negated: n.Negated, GateRef: n.Gate()}, i
	}
	t := &Tree{Kind: n.Kind, Children: make([]*Tree, n.Arg)}
	j := i
	for k := len(t.Children) - 1; k >= 0; k-- {
		t.Children[k], j = s.tree(j-1, signal)
	}
	return t, j
}

// Tree is the constructor and rendering form of a pulldown network: one
// node of an expression tree.
type Tree struct {
	Kind Kind

	// Leaf fields.
	Signal  string // name of the driving signal
	Negated bool   // complemented primary-input literal
	GateRef int    // id of the driving domino gate, or -1 for a primary input

	// Series/Parallel children.
	Children []*Tree
}

// NewLeaf returns a transistor leaf. gateRef is -1 when the signal is a
// primary input.
func NewLeaf(signal string, negated bool, gateRef int) *Tree {
	return &Tree{Kind: Leaf, Signal: signal, Negated: negated, GateRef: gateRef}
}

// NewSeries composes children top-to-bottom, flattening nested series.
// A single child is returned unchanged.
func NewSeries(children ...*Tree) *Tree {
	return compose(Series, children)
}

// NewParallel composes children side by side, flattening nested parallels.
// A single child is returned unchanged.
func NewParallel(children ...*Tree) *Tree {
	return compose(Parallel, children)
}

func compose(kind Kind, children []*Tree) *Tree {
	if len(children) == 0 {
		panic("sp: composition of zero children")
	}
	if len(children) == 1 {
		return children[0]
	}
	flat := make([]*Tree, 0, len(children))
	for _, c := range children {
		if c == nil {
			panic("sp: nil child")
		}
		if c.Kind == kind {
			flat = append(flat, c.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	return &Tree{Kind: kind, Children: flat}
}

// Flatten writes t as a span. A leaf with a GateRef keeps it as its gate
// id; primary-input leaves are numbered by signal in order of first
// appearance, and names lists those signals by index.
func Flatten(t *Tree) (s Span, names []string) {
	index := map[string]int{}
	var walk func(*Tree)
	walk = func(t *Tree) {
		if t.Kind != Leaf {
			for _, c := range t.Children {
				walk(c)
			}
			s = append(s, Compose(t.Kind, len(t.Children)))
			return
		}
		if t.GateRef >= 0 {
			s = append(s, GateLeaf(t.GateRef))
			return
		}
		i, ok := index[t.Signal]
		if !ok {
			i = len(names)
			index[t.Signal] = i
			names = append(names, t.Signal)
		}
		s = append(s, InputLeaf(i, t.Negated))
	}
	walk(t)
	return s, names
}

// String renders the tree in the paper's expression notation: series as
// '*', parallel as '+', complemented literals with a leading '!'.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, Leaf)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, parent Kind) {
	switch t.Kind {
	case Leaf:
		if t.Negated {
			b.WriteByte('!')
		}
		b.WriteString(t.Signal)
	case Series:
		for i, c := range t.Children {
			if i > 0 {
				b.WriteByte('*')
			}
			c.render(b, Series)
		}
	case Parallel:
		if parent == Series {
			b.WriteByte('(')
		}
		for i, c := range t.Children {
			if i > 0 {
				b.WriteByte('+')
			}
			c.render(b, Parallel)
		}
		if parent == Series {
			b.WriteByte(')')
		}
	}
}
