// Package logic provides the Boolean logic network substrate used by the
// SOI domino technology mapper: a directed acyclic graph of multi-input
// gates with named primary inputs and outputs, plus evaluation, structural
// queries and statistics.
//
// Networks are append-only: every gate's fanins must already exist when the
// gate is added, so the node slice is always in topological order. This
// invariant is relied on throughout the mapper pipeline.
package logic

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"soidomino/internal/idtab"
)

// Op identifies the function computed by a node.
type Op uint8

// Node operations. Input nodes have no fanins; Buf and Not take exactly one
// fanin; the remaining gates take two or more.
const (
	Input Op = iota
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Const0
	Const1
)

var opNames = [...]string{
	Input:  "input",
	Buf:    "buf",
	Not:    "not",
	And:    "and",
	Or:     "or",
	Nand:   "nand",
	Nor:    "nor",
	Xor:    "xor",
	Xnor:   "xnor",
	Const0: "const0",
	Const1: "const1",
}

// String returns the lower-case mnemonic for the operation.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Inverting reports whether the operation inverts with respect to its
// monotone core (NOT, NAND, NOR). XOR/XNOR are neither monotone nor
// anti-monotone and report false.
func (op Op) Inverting() bool {
	return op == Not || op == Nand || op == Nor
}

// MinFanin returns the minimum legal fanin count for the operation.
func (op Op) MinFanin() int {
	switch op {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count for the operation, or -1
// for unbounded.
func (op Op) MaxFanin() int {
	switch op {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return -1
	}
}

// Node is one vertex of a Network. The zero value is an unnamed Input.
type Node struct {
	Op   Op
	Name string // optional; inputs and gate outputs may be named
	// Fanin holds node ids, all smaller than this node's id. In a network
	// built by the Add methods it is a read-only view into the network's
	// fanin store, its capacity clipped to its length, so an append to it
	// copies instead of overwriting the next node's fanins.
	Fanin []int
}

// Output names one primary output of a Network and the node that drives it.
type Output struct {
	Name string
	Node int
}

// Network is a combinational Boolean network. Use New and the Add methods
// to build one; nodes are stored in topological order by construction.
// The fanins of all its gates live in one store of a few large chunks,
// so adding a gate allocates nothing beyond the store's occasional new
// chunk, and nothing at all after a Grow call that covers the network.
// Copy a network with Clone: a struct copy shares the open chunk, and
// gates added to both copies would overwrite each other's fanins.
type Network struct {
	Name    string
	Nodes   []Node
	Inputs  []int // ids of Input nodes, in declaration order
	Outputs []Output
	// fanins is the open chunk of the fanin store. A full chunk is never
	// grown in place but replaced by a fresh one, so the Fanin views of
	// earlier nodes stay valid.
	fanins []int
}

// minFaninChunk is the smallest chunk the fanin store starts without a
// Grow hint: a small network's fanins in one allocation.
const minFaninChunk = 64

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name}
}

// Len returns the number of nodes in the network.
func (n *Network) Len() int { return len(n.Nodes) }

// AddInput appends a primary input with the given name and returns its id.
// Check rejects a network whose inputs share a name.
func (n *Network) AddInput(name string) int {
	id := n.add(Node{Op: Input, Name: name})
	n.Inputs = append(n.Inputs, id)
	return id
}

// AddConst appends a constant node and returns its id.
func (n *Network) AddConst(value bool) int {
	op := Const0
	if value {
		op = Const1
	}
	return n.add(Node{Op: op})
}

// AddGate appends a gate computing op over the given fanins and returns its
// id. It panics if a fanin id is out of range (>= the new node's id) or the
// fanin count is illegal for op: both indicate a programming error in the
// caller, not recoverable input.
func (n *Network) AddGate(op Op, fanin ...int) int {
	if len(fanin) < op.MinFanin() || (op.MaxFanin() >= 0 && len(fanin) > op.MaxFanin()) {
		panic(fmt.Sprintf("logic: %s gate with %d fanins", op, len(fanin)))
	}
	id := len(n.Nodes)
	for _, f := range fanin {
		if f < 0 || f >= id {
			panic(fmt.Sprintf("logic: gate %d references fanin %d", id, f))
		}
	}
	return n.add(Node{Op: op, Fanin: n.store(fanin)})
}

// Grow makes room for nodes more nodes holding fanins more fanin entries
// between them, so that adding them allocates nothing. Builders that know
// the size of what they build call it once, first.
func (n *Network) Grow(nodes, fanins int) {
	n.Nodes = slices.Grow(n.Nodes, nodes)
	if cap(n.fanins)-len(n.fanins) < fanins {
		n.fanins = make([]int, 0, fanins)
	}
}

// store copies fanin into the fanin store and returns its view there; an
// empty list stays nil. A chunk too full for it is left to the views it
// backs and a new one, at least twice its size, is started.
func (n *Network) store(fanin []int) []int {
	if len(fanin) == 0 {
		return nil
	}
	if cap(n.fanins)-len(n.fanins) < len(fanin) {
		n.fanins = make([]int, 0, max(len(fanin), 2*cap(n.fanins), minFaninChunk))
	}
	lo := len(n.fanins)
	n.fanins = append(n.fanins, fanin...)
	return n.fanins[lo:len(n.fanins):len(n.fanins)]
}

// faninTotal returns the number of fanin entries over all nodes.
func (n *Network) faninTotal() int {
	total := 0
	for _, node := range n.Nodes {
		total += len(node.Fanin)
	}
	return total
}

func (n *Network) add(node Node) int {
	n.Nodes = append(n.Nodes, node)
	return len(n.Nodes) - 1
}

// AddOutput marks node as a primary output under the given name.
func (n *Network) AddOutput(name string, node int) {
	if node < 0 || node >= len(n.Nodes) {
		panic(fmt.Sprintf("logic: output %q references node %d", name, node))
	}
	n.Outputs = append(n.Outputs, Output{Name: name, Node: node})
}

// Check validates structural invariants and returns the first violation. A
// network built only through the Add methods always passes.
func (n *Network) Check() error {
	for id, node := range n.Nodes {
		if len(node.Fanin) < node.Op.MinFanin() {
			return fmt.Errorf("node %d (%s): %d fanins, need at least %d",
				id, node.Op, len(node.Fanin), node.Op.MinFanin())
		}
		if max := node.Op.MaxFanin(); max >= 0 && len(node.Fanin) > max {
			return fmt.Errorf("node %d (%s): %d fanins, at most %d allowed",
				id, node.Op, len(node.Fanin), max)
		}
		for _, f := range node.Fanin {
			if f < 0 || f >= id {
				return fmt.Errorf("node %d: fanin %d breaks topological order", id, f)
			}
		}
	}
	for _, out := range n.Outputs {
		if out.Node < 0 || out.Node >= len(n.Nodes) {
			return fmt.Errorf("output %q: node %d out of range", out.Name, out.Node)
		}
	}
	for _, id := range n.Inputs {
		if n.Nodes[id].Op != Input {
			return fmt.Errorf("input list entry %d is a %s node", id, n.Nodes[id].Op)
		}
	}
	return n.CheckInputNames(new(idtab.Table))
}

var nameSeed = maphash.MakeSeed()

// CheckInputNames returns an error naming an input name n declares
// twice, found in tab, which it resets. The unate lowering checks every
// network it is handed, built in code and unchecked ones too, with a
// pooled table: a warm check allocates nothing and copies no name.
func (n *Network) CheckInputNames(tab *idtab.Table) error {
	hash := func(i int) uint64 { return maphash.String(nameSeed, n.Nodes[n.Inputs[i]].Name) }
	tab.Reset(len(n.Inputs))
	for i, id := range n.Inputs {
		name := n.Nodes[id].Name
		p := tab.Probe(hash(i))
		for j, ok := p.Next(); ok; j, ok = p.Next() {
			if n.Nodes[n.Inputs[j]].Name == name {
				return fmt.Errorf("duplicate input name %q", name)
			}
		}
		p.Insert(i, hash)
	}
	return nil
}

// FanoutCounts returns per-node fanout counts (gate fanins only;
// primary-output references are reported separately by OutputRefs). It
// never mutates the network, so concurrent readers — e.g. parallel
// mapping runs sharing one network — may call it freely.
func (n *Network) FanoutCounts() []int {
	counts := make([]int, len(n.Nodes))
	for _, node := range n.Nodes {
		for _, f := range node.Fanin {
			counts[f]++
		}
	}
	return counts
}

// OutputRefs returns how many primary outputs each node drives.
func (n *Network) OutputRefs() []int {
	refs := make([]int, len(n.Nodes))
	for _, out := range n.Outputs {
		refs[out.Node]++
	}
	return refs
}

// Levels returns, for every node, its logic depth: inputs and constants are
// level 0 and every gate is one more than its deepest fanin.
func (n *Network) Levels() []int {
	levels := make([]int, len(n.Nodes))
	for id, node := range n.Nodes {
		lv := 0
		for _, f := range node.Fanin {
			if levels[f]+1 > lv {
				lv = levels[f] + 1
			}
		}
		levels[id] = lv
	}
	return levels
}

// Depth returns the maximum level over all primary outputs (0 for a network
// whose outputs are inputs or constants).
func (n *Network) Depth() int {
	levels := n.Levels()
	d := 0
	for _, out := range n.Outputs {
		if levels[out.Node] > d {
			d = levels[out.Node]
		}
	}
	return d
}

// Stats summarizes the structural content of a network.
type Stats struct {
	Inputs  int
	Outputs int
	Gates   int               // non-input, non-constant nodes
	ByOp    [len(opNames)]int // node count per Op
	Depth   int
}

// Stats computes summary statistics.
func (n *Network) Stats() Stats {
	s, _ := n.StatsWith(nil)
	return s
}

// StatsWith is Stats with the depth computed in levels, a per-node level
// table it grows as needed and returns: a caller that keeps the table
// and passes it back computes stats without allocating.
func (n *Network) StatsWith(levels []int32) (Stats, []int32) {
	s := Stats{Inputs: len(n.Inputs), Outputs: len(n.Outputs)}
	levels = slices.Grow(levels[:0], len(n.Nodes))[:len(n.Nodes)]
	for id, node := range n.Nodes {
		s.ByOp[node.Op]++
		switch node.Op {
		case Input, Const0, Const1:
		default:
			s.Gates++
		}
		lv := int32(0)
		for _, f := range node.Fanin {
			lv = max(lv, levels[f]+1)
		}
		levels[id] = lv
	}
	for _, out := range n.Outputs {
		s.Depth = max(s.Depth, int(levels[out.Node]))
	}
	return s, levels
}

// String renders a short human-readable description.
func (n *Network) String() string {
	s := n.Stats()
	return fmt.Sprintf("%s: %d inputs, %d outputs, %d gates, depth %d",
		n.Name, s.Inputs, s.Outputs, s.Gates, s.Depth)
}

// Dump writes the full node list, one line per node, mostly for debugging
// and golden tests.
func (n *Network) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s\n", n.Name)
	for id, node := range n.Nodes {
		fmt.Fprintf(&b, "  %4d %-6s", id, node.Op)
		if node.Name != "" {
			fmt.Fprintf(&b, " %q", node.Name)
		}
		if len(node.Fanin) > 0 {
			fmt.Fprintf(&b, " <- %v", node.Fanin)
		}
		b.WriteByte('\n')
	}
	for _, out := range n.Outputs {
		fmt.Fprintf(&b, "  output %q = node %d\n", out.Name, out.Node)
	}
	return b.String()
}
