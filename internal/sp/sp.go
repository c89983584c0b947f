// Package sp models the series-parallel nMOS pulldown network of a domino
// gate as an expression tree. Series composition stacks structures between
// the dynamic node (top) and ground (bottom); parallel composition places
// them side by side. The PBE analysis (internal/pbe), the transistor-level
// netlist (internal/netlist) and the mappers all operate on these trees.
package sp

import (
	"fmt"
	"strings"
)

// Kind discriminates tree nodes.
type Kind uint8

const (
	// Leaf is a single nMOS transistor driven by a signal.
	Leaf Kind = iota
	// Series stacks children vertically; Children[0] is at the top
	// (nearest the dynamic node), the last child touches the bottom.
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

// Tree is one node of a series-parallel pulldown network.
type Tree struct {
	Kind Kind

	// Leaf fields.
	Signal  string // name of the driving signal
	Negated bool   // complemented primary-input literal
	FromPI  bool   // gate terminal driven by a primary input (possibly inverted)
	GateRef int    // id of the driving domino gate, or -1 for a primary input

	// Series/Parallel children.
	Children []*Tree
}

// NewLeaf returns a transistor leaf. gateRef is -1 when the signal is a
// primary input.
func NewLeaf(signal string, negated bool, gateRef int) *Tree {
	return &Tree{Kind: Leaf, Signal: signal, Negated: negated, FromPI: gateRef < 0, GateRef: gateRef}
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

// Width returns the maximum number of side-by-side conduction paths: 1 for
// a leaf, the max over children for series, the sum for parallel. This is
// the W of the paper's {W,H} tuples.
func (t *Tree) Width() int {
	switch t.Kind {
	case Leaf:
		return 1
	case Series:
		w := 0
		for _, c := range t.Children {
			if cw := c.Width(); cw > w {
				w = cw
			}
		}
		return w
	default:
		w := 0
		for _, c := range t.Children {
			w += c.Width()
		}
		return w
	}
}

// Height returns the maximum number of stacked transistors on any path:
// 1 for a leaf, the sum over children for series, the max for parallel.
// This is the H of the paper's {W,H} tuples.
func (t *Tree) Height() int {
	switch t.Kind {
	case Leaf:
		return 1
	case Series:
		h := 0
		for _, c := range t.Children {
			h += c.Height()
		}
		return h
	default:
		h := 0
		for _, c := range t.Children {
			if ch := c.Height(); ch > h {
				h = ch
			}
		}
		return h
	}
}

// Transistors counts the leaves of the tree.
func (t *Tree) Transistors() int {
	if t.Kind == Leaf {
		return 1
	}
	n := 0
	for _, c := range t.Children {
		n += c.Transistors()
	}
	return n
}

// HasPI reports whether any leaf is driven by a primary input; such gates
// need an n-clock foot transistor (paper: listing 2, create_domino_gate).
func (t *Tree) HasPI() bool {
	if t.Kind == Leaf {
		return t.FromPI
	}
	for _, c := range t.Children {
		if c.HasPI() {
			return true
		}
	}
	return false
}

// ParallelAtBottom reports whether the structure's bottom is a parallel
// stack: the paper's par_b flag. A leaf is false; a parallel node is true;
// a series node inherits from its bottom-most child.
func (t *Tree) ParallelAtBottom() bool {
	switch t.Kind {
	case Leaf:
		return false
	case Parallel:
		return true
	default:
		return t.Children[len(t.Children)-1].ParallelAtBottom()
	}
}

// ContainsParallel reports whether any parallel composition appears in the
// tree. Per the paper (§V), the PBE can only be excited in the presence of
// at least one parallel stack.
func (t *Tree) ContainsParallel() bool {
	if t.Kind == Parallel {
		return true
	}
	for _, c := range t.Children {
		if c.ContainsParallel() {
			return true
		}
	}
	return false
}

// Conducts evaluates whether the pulldown network conducts under the given
// signal values. Negated leaves conduct when their signal is false.
func (t *Tree) Conducts(values map[string]bool) bool {
	switch t.Kind {
	case Leaf:
		v := values[t.Signal]
		if t.Negated {
			v = !v
		}
		return v
	case Series:
		for _, c := range t.Children {
			if !c.Conducts(values) {
				return false
			}
		}
		return true
	default:
		for _, c := range t.Children {
			if c.Conducts(values) {
				return true
			}
		}
		return false
	}
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	cp := *t
	if len(t.Children) > 0 {
		cp.Children = make([]*Tree, len(t.Children))
		for i, c := range t.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Leaves returns all leaf nodes in left-to-right (top-to-bottom) order,
// in one slice sized to the transistor count.
func (t *Tree) Leaves() []*Tree {
	return t.appendLeaves(make([]*Tree, 0, t.Transistors()))
}

func (t *Tree) appendLeaves(out []*Tree) []*Tree {
	if t.Kind == Leaf {
		return append(out, t)
	}
	for _, c := range t.Children {
		out = c.appendLeaves(out)
	}
	return out
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

// Validate checks structural invariants: composition nodes have at least
// two children, nested same-kind composition is flattened, and leaves have
// signals.
func (t *Tree) Validate() error {
	switch t.Kind {
	case Leaf:
		if t.Signal == "" {
			return fmt.Errorf("sp: leaf without signal")
		}
		if len(t.Children) != 0 {
			return fmt.Errorf("sp: leaf with children")
		}
		return nil
	case Series, Parallel:
		if len(t.Children) < 2 {
			return fmt.Errorf("sp: %s with %d children", t.Kind, len(t.Children))
		}
		for _, c := range t.Children {
			if c.Kind == t.Kind {
				return fmt.Errorf("sp: unflattened nested %s", t.Kind)
			}
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sp: unknown kind %v", t.Kind)
}
