// Package unate lowers an arbitrary logic network into the form the
// domino mappers consume (paper §IV): an inverter-free unate network of
// 2-input AND and OR gates. Domino gates are non-inverting, so
// inversions remain only directly on primary inputs, which the mapper
// treats as complemented input literals.
//
// Decompose builds a flat table of 2-input AND/OR gates over
// complementable literals: wide gates become balanced binary trees
// (keeping depth logarithmic so the depth objective of Table IV is
// meaningful), XOR/XNOR expand into their two-level AND-OR form,
// constants are folded away, and structurally identical gates are
// shared. Convert then pushes every inversion to the primary inputs
// with DeMorgan's laws ("bubble pushing"), duplicating logic where both
// phases of a signal are needed, and builds the one logic.Network the
// mapper reads.
package unate

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"soidomino/internal/logic"
)

// phase selects the polarity of a signal during conversion.
type phase uint8

const (
	pos phase = iota // the signal itself
	neg              // its complement
)

func (p phase) String() string {
	if p == neg {
		return "neg"
	}
	return "pos"
}

// lit is a literal over a Decomposed table: the node index times two
// plus a complement bit, or one of the two constants. Complementing any
// literal, constants included, flips its low bit.
type lit int32

const (
	lit0  lit = -2 // constant 0
	lit1  lit = -1 // constant 1
	unset lit = -3 // Decompose's memo: source node not lowered yet
)

// gate is one table entry: a primary input (op Input) or a 2-input AND
// or OR over two literals.
type gate struct {
	op   logic.Op
	a, b lit
}

// Decomposed is a network lowered to 2-input AND/OR gates over
// complementable literals, ready for Convert.
type Decomposed struct {
	src   *logic.Network
	nodes []gate // the primary inputs in declaration order, then gates in creation order
	outs  []lit  // one per source output
}

type decomposer struct {
	*Decomposed
	*scratch
}

// scratch is the per-run state of Decompose and Convert that their
// results do not keep. Runs take it from the scratches pool and give it
// back when they return, so a warm run reuses the tables' backing arrays
// and the hash map's buckets. Each taker resets the part it uses.
type scratch struct {
	memo     []lit        // Decompose: per source node
	hash     map[gate]lit // Decompose: gates keyed on their sorted literals
	hashSize int          // Decompose: the source node count hash was made for
	stack    []lit        // Decompose: fanin literals of the trees being built
	names    []int32      // Decompose: duplicateInput's hash table
	built    []int32      // Convert: per phase and table node, see converter.memo
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

var nameSeed = maphash.MakeSeed()

// duplicateInput reports an input name n uses twice. The parsers check
// their networks (logic.Network.Check) and strash copies its source's
// names, but a network built in code reaches Decompose unchecked, so
// every run pays for the check: an open-addressing table of input
// indices + 1 keyed by the names' hashes, pooled, so a warm run
// allocates nothing and no string is copied.
func (s *scratch) duplicateInput(n *logic.Network) (string, bool) {
	size := 1
	for size < 2*len(n.Inputs) {
		size <<= 1
	}
	s.names = slices.Grow(s.names[:0], size)[:size]
	clear(s.names)
	mask := uint64(size - 1)
	for i, id := range n.Inputs {
		name := n.Nodes[id].Name
		for j := maphash.String(nameSeed, name) & mask; ; j = (j + 1) & mask {
			k := s.names[j]
			if k == 0 {
				s.names[j] = int32(i + 1)
				break
			}
			if n.Nodes[n.Inputs[k-1]].Name == name {
				return name, true
			}
		}
	}
	return "", false
}

// Decompose lowers n, which is not modified, to 2-input AND/OR gates
// over complementable literals. It rejects a source whose inputs share a
// name: the unate network takes its input names from the source, and a
// mapping is read back by them (Result.Eval, netlist.Build, soisim).
func Decompose(n *logic.Network) (*Decomposed, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if name, dup := s.duplicateInput(n); dup {
		return nil, fmt.Errorf("unate: duplicate input name %q", name)
	}
	d := &decomposer{
		Decomposed: &Decomposed{src: n, nodes: make([]gate, len(n.Inputs), len(n.Nodes)+len(n.Inputs))},
		scratch:    s,
	}
	// Cleared, not emptied key by key: deletes leave tombstones that
	// make a reused map regrow. As in strash's builder, a map made for
	// fewer nodes or for more than four times as many is replaced, so
	// the reset costs this run.
	if d.hash == nil || len(n.Nodes) > d.hashSize || 4*len(n.Nodes) < d.hashSize {
		d.hash = make(map[gate]lit, len(n.Nodes))
		d.hashSize = len(n.Nodes)
	} else {
		clear(d.hash)
	}
	d.memo = slices.Grow(d.memo[:0], len(n.Nodes))[:len(n.Nodes)]
	d.stack = d.stack[:0]
	for i := range d.memo {
		d.memo[i] = unset
	}
	for i, id := range n.Inputs {
		d.memo[id] = lit(2 * i) // d.nodes[i] is the zero gate, an Input
	}
	d.outs = make([]lit, len(n.Outputs))
	for i, out := range n.Outputs {
		v, err := d.visit(out.Node)
		if err != nil {
			return nil, err
		}
		d.outs[i] = v
	}
	return d.Decomposed, nil
}

func (d *decomposer) visit(id int) (lit, error) {
	if v := d.memo[id]; v != unset {
		return v, nil
	}
	node := d.src.Nodes[id]
	var v lit
	var err error
	switch node.Op {
	case logic.Const0:
		v = lit0
	case logic.Const1:
		v = lit1
	case logic.Buf, logic.Not:
		v, err = d.visit(node.Fanin[0])
	case logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor:
		v, err = d.tree(node.Op, node.Fanin)
	case logic.Input:
		return 0, fmt.Errorf("decompose: input node %d not pre-registered", id)
	default:
		return 0, fmt.Errorf("decompose: unsupported op %v", node.Op)
	}
	if err != nil {
		return 0, err
	}
	if node.Op.Inverting() || node.Op == logic.Xnor {
		v ^= 1
	}
	d.memo[id] = v
	return v, nil
}

// tree combines the fanins of an op gate level by level into a
// balanced binary tree, without its output inversion.
func (d *decomposer) tree(op logic.Op, fanin []int) (lit, error) {
	base := len(d.stack)
	for _, f := range fanin {
		v, err := d.visit(f)
		if err != nil {
			return 0, err
		}
		d.stack = append(d.stack, v)
	}
	lits := d.stack[base:]
	for len(lits) > 1 {
		k := 0
		for i := 0; i+1 < len(lits); i += 2 {
			lits[k] = d.pair(op, lits[i], lits[i+1])
			k++
		}
		if len(lits)%2 == 1 {
			lits[k] = lits[len(lits)-1]
			k++
		}
		lits = lits[:k]
	}
	d.stack = d.stack[:base]
	return lits[0], nil
}

// pair is one 2-input node of an op tree; an XOR pair is realized as
// (a AND !b) OR (!a AND b).
func (d *decomposer) pair(op logic.Op, a, b lit) lit {
	switch op {
	case logic.And, logic.Nand:
		return d.gate(logic.And, a, b)
	case logic.Or, logic.Nor:
		return d.gate(logic.Or, a, b)
	}
	return d.gate(logic.Or, d.gate(logic.And, a, b^1), d.gate(logic.And, a^1, b))
}

// gate returns the literal of a op b, folding constants, x op x and
// x op !x, and reusing a structurally identical gate.
func (d *decomposer) gate(op logic.Op, a, b lit) lit {
	dominant := lit0 // 0 dominates AND, 1 dominates OR
	if op == logic.Or {
		dominant = lit1
	}
	switch {
	case a == dominant || b == dominant:
		return dominant
	case a < 0: // the identity element
		return b
	case b < 0:
		return a
	case a == b:
		return a
	case a == b^1:
		return dominant
	}
	k := gate{op, min(a, b), max(a, b)}
	if v, ok := d.hash[k]; ok {
		return v
	}
	v := lit(2 * len(d.nodes))
	d.nodes = append(d.nodes, gate{op, a, b})
	d.hash[k] = v
	return v
}

// Result carries the unate network plus conversion statistics.
type Result struct {
	Network *logic.Network
	// DuplicatedNodes counts decomposed gates realized in both phases;
	// the paper notes duplication is bounded by 2x and typically small.
	DuplicatedNodes int
}

type converter struct {
	*Decomposed
	dst *logic.Network
	// memo holds, per phase and table node, its dst node, or notNeeded
	// or needed before it is built.
	memo   [2][]int32
	consts [2]int32 // dst Const0 and Const1 nodes, likewise
}

// converter.memo and consts entries before a node is built: the marking
// pass sets needed on every (node, phase) and constant an output
// reaches.
const (
	notNeeded int32 = -1
	needed    int32 = -2
)

// Convert builds the unate network of d with every primary output in
// positive phase. A marking pass first counts the nodes and fanins the
// network will hold, so it is built into exactly presized tables.
func (d *Decomposed) Convert() (*Result, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	c := &converter{Decomposed: d, dst: logic.New(d.src.Name + ".unate"), consts: [2]int32{notNeeded, notNeeded}}
	size := len(d.nodes)
	memo := slices.Grow(s.built[:0], 2*size)[:2*size]
	s.built = memo
	for i := range memo {
		memo[i] = notNeeded
	}
	c.memo = [2][]int32{memo[:size], memo[size:]}
	nodes, fanins := len(d.src.Inputs), 0
	for i := range d.src.Inputs {
		c.memo[pos][i] = needed
	}
	for _, l := range d.outs {
		n, f := c.mark(l)
		nodes, fanins = nodes+n, fanins+f
	}
	c.dst.Grow(nodes, fanins)
	c.dst.Inputs = make([]int, 0, len(d.src.Inputs))
	c.dst.Outputs = make([]logic.Output, 0, len(d.src.Outputs))
	for i, id := range d.src.Inputs {
		c.memo[pos][i] = int32(c.dst.AddInput(d.src.Nodes[id].Name))
	}
	for i, out := range d.src.Outputs {
		c.dst.AddOutput(out.Name, c.visit(d.outs[i]))
	}
	res := &Result{Network: c.dst}
	for i := len(d.src.Inputs); i < len(d.nodes); i++ {
		if c.memo[pos][i] >= 0 && c.memo[neg][i] >= 0 {
			res.DuplicatedNodes++
		}
	}
	return res, nil
}

// mark sets needed on the nodes visit will build for l that are not
// marked yet, and returns how many nodes and fanins they take.
func (c *converter) mark(l lit) (nodes, fanins int) {
	if l < 0 {
		if v := l - lit0; c.consts[v] == notNeeded {
			c.consts[v] = needed
			return 1, 0
		}
		return 0, 0
	}
	i, ph := l>>1, phase(l&1)
	if c.memo[ph][i] != notNeeded {
		return 0, 0
	}
	c.memo[ph][i] = needed
	g := c.nodes[i]
	if g.op == logic.Input {
		return 1, 1 // the inverter over a primary input
	}
	na, fa := c.mark(g.a ^ lit(ph))
	nb, fb := c.mark(g.b ^ lit(ph))
	return 1 + na + nb, 2 + fa + fb
}

// visit returns the dst node realizing l: its table node in the phase
// of its complement bit.
func (c *converter) visit(l lit) int {
	if l < 0 {
		v := l - lit0
		if c.consts[v] < 0 {
			c.consts[v] = int32(c.dst.AddConst(l == lit1))
		}
		return int(c.consts[v])
	}
	i, ph := l>>1, phase(l&1)
	if id := c.memo[ph][i]; id >= 0 {
		return int(id)
	}
	g := c.nodes[i]
	var id int
	if g.op == logic.Input {
		// Pos is pre-registered; neg is an inverter at the primary
		// input, the one place inversions are allowed.
		id = c.dst.AddGate(logic.Not, int(c.memo[pos][i]))
	} else {
		op := g.op
		if ph == neg {
			// DeMorgan: !(a & b) = !a | !b and dually.
			if op == logic.And {
				op = logic.Or
			} else {
				op = logic.And
			}
		}
		a := c.visit(g.a ^ lit(ph))
		b := c.visit(g.b ^ lit(ph))
		id = c.dst.AddGate(op, a, b)
	}
	c.memo[ph][i] = int32(id)
	return id
}

// IsUnate reports whether the network is in legal unate form: 2-input
// AND/OR gates whose fanins are gates, inputs, constants or input literals
// (Not directly over Input), with no other Not nodes.
func IsUnate(n *logic.Network) error {
	for id, node := range n.Nodes {
		switch node.Op {
		case logic.Input, logic.Const0, logic.Const1:
		case logic.Not:
			if n.Nodes[node.Fanin[0]].Op != logic.Input {
				return fmt.Errorf("node %d: inverter over %s (only input literals allowed)",
					id, n.Nodes[node.Fanin[0]].Op)
			}
		case logic.And, logic.Or:
			if len(node.Fanin) != 2 {
				return fmt.Errorf("node %d: %s with %d fanins", id, node.Op, len(node.Fanin))
			}
		default:
			return fmt.Errorf("node %d: op %s not allowed in unate form", id, node.Op)
		}
	}
	return nil
}

// IsLeaf reports whether node id of a unate network is a mapping leaf: a
// primary input or a complemented primary input literal.
func IsLeaf(n *logic.Network, id int) bool {
	switch n.Nodes[id].Op {
	case logic.Input:
		return true
	case logic.Not:
		return n.Nodes[n.Nodes[id].Fanin[0]].Op == logic.Input
	}
	return false
}
