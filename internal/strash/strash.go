// Package strash is the structural-hashing + dead-code-elimination
// canonicalization front-end of the mapping stack. It rewrites a
// logic.Network into a semantically equivalent, usually smaller network in
// which structurally identical gates have been merged (hash-consing with
// commutative-input normalization), constant fanins have been folded, and
// every node unreachable from a primary output has been removed.
//
// The pass runs before the unate lowering in every mapper pipeline
// (report.PrepareNetworkContext), and its structural digest (Result.Key)
// is the service cache and routing key (service.CacheKey), so
// structurally identical but textually different submissions — renamed
// internal signals, reordered gate declarations, reordered commutative
// operands, redundant twin or dead logic — collapse onto one cache entry,
// one router shard and one in-flight leader.
//
// Contract (see DESIGN.md §13): strash preserves the network name, the
// primary-input set with names and declaration order, and the
// primary-output list with names and order (including duplicate outputs
// and outputs driven by inputs or constants); it preserves function at
// every primary output. It drops internal gate names, gate sharing versus
// duplication distinctions (twins merge, which changes fanout counts and
// therefore may change — but never invalidate — downstream mapping
// choices), and all dead logic. Commutative fanins are reordered by each
// operand's structural signature — NOT by local node id — so the operand
// order (which the mapper reads as series-stack order) is itself a
// function of structure alone, independent of how the source text
// happened to order declarations. Output networks are deterministic: the
// same input network always yields byte-identical strash output
// (the `make strash-determinism` gate pins this).
package strash

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"soidomino/internal/faultpoint"
	"soidomino/internal/idtab"
	"soidomino/internal/logic"
)

// PointBadMerge is the package's declared fault point (Flip kind): when
// armed and it fires, one hash-cons lookup deliberately merges an OR gate
// into a structurally different AND gate's cons entry, producing an
// inequivalent network. It exists so the fuzzer can demonstrate that the
// equivalence and strash-metamorphic oracles catch front-end corruption
// and shrink it to a minimal repro; production callers never arm it
// (chaos campaigns arm only non-Flip kinds, which are inert here).
var PointBadMerge = faultpoint.Define("strash.bad-merge",
	"flip: merge one OR gate into an AND cons entry")

// Counters reports how much one Run reduced the network.
type Counters struct {
	// NodesIn and NodesOut count all nodes (inputs and constants
	// included) before and after the pass.
	NodesIn  int
	NodesOut int
	// Merged counts gate nodes that hash-consed onto an existing
	// structurally identical node.
	Merged int
	// Folded counts gate nodes simplified away without a cons hit:
	// constant folding, buffer collapse, double-negation, idempotent
	// duplicate removal down to a single operand, and complement-pair
	// cancellation all land here.
	Folded int
	// Dead counts nodes removed by the DCE sweep because no primary
	// output could reach them (primary inputs are always kept).
	Dead int
}

// Result is the outcome of one strash pass.
type Result struct {
	// Network is the canonicalized network. It is freshly built and
	// shares no mutable state with the input.
	Network *logic.Network
	// Counters summarizes the reduction.
	Counters Counters
	// Key is the structural digest of Network: a sha256 over the network
	// name, the primary-input names in declaration order, and each
	// primary output's name and structural signature in declaration
	// order. A signature covers the output's whole cone, and Network
	// holds nothing but those cones and the inputs, so two submissions
	// share a Key exactly when they strash to the same network up to
	// node numbering (barring sha256 collisions).
	Key [32]byte
}

// Run canonicalizes n. It never fails on a structurally valid network
// (one that passes n.Check); invalid networks panic, matching the
// logic package's own programming-error convention.
func Run(n *logic.Network) *Result {
	return RunContext(context.Background(), n)
}

// node is one vertex of the hash-consed network under construction. Its
// fanins are fanins[lo:hi] of the owning Builder.
type node struct {
	op     logic.Op
	name   string // primary inputs only
	lo, hi int32
}

// output is one primary output added to a Builder.
type output struct {
	name string
	id   int
}

// Builder is the hash-consing network builder behind Run. It takes a
// network node by node through AddInput, AddConst, AddGate and
// AddOutput, every fanin added before its gate, and answers Key without
// building a logic.Network. The ids it returns are its own; AddGate may
// return an existing node (a cons hit, a fold or a fanin). The BLIF
// reader lowers its covers straight into one (blif.Lower), which is how
// the service keys a BLIF source from its text.
//
// It accumulates the hash-consed network in flat slices: every node
// carries a structural signature (a sha256 over its op and its fanins'
// signatures) that doubles as the cons key and the commutative-fanin
// sort key. The scratch slices are reused across gates; mark and count
// are per-node tables whose entries are valid only where mark equals the
// current gate's stamp, so starting a gate clears nothing.
//
// The cons table maps a gate's signature to its node: an idtab.Table of
// node ids hashed by the signature's first eight bytes, which, as sha256
// output, need no further hashing. A probe compares the full signature
// with sigs[id]. Inputs and constants are never entered; every other
// node is, once, when it is built.
//
// Builders come from a pool (NewBuilder) and go back to it (Release),
// so a warm builder allocates nothing: every table, the cons table and
// Run's own scratch (repr, keep, finalOf) keep their backing arrays
// from run to run, and a run clears only the part of the cons table its
// own size calls for.
type Builder struct {
	nodes   []node
	fanins  []int
	sigs    [][32]byte // per node structural signature
	cons    idtab.Table
	inputs  []int
	outputs []output
	faults  *faultpoint.Registry
	c       Counters
	const0  int
	const1  int

	buf   []byte  // signature preimage
	mark  []int32 // mark[id] == stamp: id is an operand of the current gate
	count []int32 // operand multiplicity in the current parity gate
	stamp int32
	in    []int // current source gate's fanins through repr
	ops   []int // current gate's operand list
	order []int // parity operands in first-seen order

	// Run's scratch: per source node its builder id, then per builder
	// node whether DCE keeps it and its id in the output network.
	repr    []int
	keep    []bool
	finalOf []int
}

var builders = sync.Pool{New: func() any { return new(Builder) }}

// add appends a node with its signature and fanins, returning its id.
func (b *Builder) add(op logic.Op, name string, fanin []int, sig [32]byte) int {
	id := len(b.nodes)
	lo := int32(len(b.fanins))
	b.fanins = append(b.fanins, fanin...)
	b.nodes = append(b.nodes, node{op: op, name: name, lo: lo, hi: int32(len(b.fanins))})
	b.sigs = append(b.sigs, sig)
	b.mark = append(b.mark, 0)
	b.count = append(b.count, 0)
	return id
}

// fanin returns node id's fanin list (a view into b.fanins).
func (b *Builder) fanin(id int) []int {
	nd := b.nodes[id]
	return b.fanins[nd.lo:nd.hi]
}

// NewBuilder returns an empty Builder from the pool with room for about
// size nodes. Release gives it back.
func NewBuilder(size int) *Builder {
	return takeBuilder(size, 2*size)
}

// takeBuilder returns a pooled Builder reset for a network of up to
// nodes nodes holding fanins fanin entries. The tables are cut to length
// zero (add zeroes mark and count per node as it appends) and the cons
// table is reset for nodes entries: the reset costs this run's size, not
// the largest run the pool has seen.
func takeBuilder(nodes, fanins int) *Builder {
	b := builders.Get().(*Builder)
	b.nodes = slices.Grow(b.nodes[:0], nodes)
	b.fanins = slices.Grow(b.fanins[:0], fanins)
	b.sigs = slices.Grow(b.sigs[:0], nodes)
	b.mark = slices.Grow(b.mark[:0], nodes)
	b.count = slices.Grow(b.count[:0], nodes)
	b.cons.Reset(nodes)
	b.inputs = b.inputs[:0]
	b.outputs = b.outputs[:0]
	b.faults = nil
	b.c = Counters{}
	b.const0, b.const1 = -1, -1
	b.stamp = 0
	return b
}

// intern returns the node whose signature is sig, building it over op
// and fanin if there is none; hit reports a cons hit.
func (b *Builder) intern(op logic.Op, fanin []int, sig [32]byte) (id int, hit bool) {
	p := b.cons.Probe(sigHash(&sig))
	for id, ok := p.Next(); ok; id, ok = p.Next() {
		if b.sigs[id] == sig {
			return id, true
		}
	}
	id = b.add(op, "", fanin, sig)
	p.Insert(id, b.consHash)
	return id, false
}

func sigHash(sig *[32]byte) uint64 { return binary.LittleEndian.Uint64(sig[:8]) }

func (b *Builder) consHash(id int) uint64 { return sigHash(&b.sigs[id]) }

// Release returns b to the pool; b must not be used afterwards. A
// Builder that is never released is collected like any other value.
func (b *Builder) Release() {
	// Names are substrings of the caller's source text: drop them so a
	// pooled builder does not keep a request's body alive.
	clear(b.nodes)
	clear(b.outputs)
	b.faults = nil
	builders.Put(b)
}

// AddInput adds a primary input. Inputs are the interface: never
// merged, names kept, and their order is part of Key.
func (b *Builder) AddInput(name string) int {
	b.buf = append(append(b.buf[:0], "i|"...), name...)
	id := b.add(logic.Input, name, nil, sha256.Sum256(b.buf))
	b.inputs = append(b.inputs, id)
	return id
}

// AddGate returns the node computing op over fanin, hash-consed and
// folded: Buf collapses onto its fanin, Not onto a constant or a double
// negation, Nand and Nor become an inverter over the core gate, and
// commutative operands are ordered by structure. The fanin slice is not
// retained. Ops other than gates panic.
func (b *Builder) AddGate(op logic.Op, fanin ...int) int {
	switch op {
	case logic.Buf:
		b.c.Folded++
		return fanin[0]
	case logic.Not:
		x := fanin[0]
		before := len(b.nodes)
		id := b.consNot(x)
		if id < before { // nothing new was built
			if b.nodes[id].op == logic.Not && b.fanin(id)[0] == x {
				b.c.Merged++ // cons hit on an identical inverter
			} else {
				b.c.Folded++ // constant fold or double negation
			}
		}
		return id
	case logic.And, logic.Or, logic.Nand, logic.Nor:
		return b.consMonotone(op, fanin)
	case logic.Xor, logic.Xnor:
		return b.consParity(op, fanin)
	}
	panic(fmt.Sprintf("strash: AddGate with op %v", op))
}

// AddOutput declares node id a primary output; output names and order
// are part of Key.
func (b *Builder) AddOutput(name string, id int) {
	b.outputs = append(b.outputs, output{name, id})
}

// AddConst returns the constant node of value v; there is at most one
// of each.
func (b *Builder) AddConst(v bool) int {
	if v {
		if b.const1 < 0 {
			b.const1 = b.add(logic.Const1, "", nil, sha256.Sum256([]byte("c1")))
		}
		return b.const1
	}
	if b.const0 < 0 {
		b.const0 = b.add(logic.Const0, "", nil, sha256.Sum256([]byte("c0")))
	}
	return b.const0
}

// isNotOf returns (x, true) when node id computes NOT x; used for
// complement-pair cancellation.
func (b *Builder) isNotOf(id int) (int, bool) {
	if b.nodes[id].op == logic.Not {
		return b.fanin(id)[0], true
	}
	return -1, false
}

// consNot builds (or finds) NOT x, folding constants and double negation.
func (b *Builder) consNot(x int) int {
	switch b.nodes[x].op {
	case logic.Const0:
		return b.AddConst(true)
	case logic.Const1:
		return b.AddConst(false)
	case logic.Not:
		return b.fanin(x)[0]
	}
	b.buf = append(append(b.buf[:0], "n|"...), b.sigs[x][:]...)
	id, _ := b.intern(logic.Not, []int{x}, sha256.Sum256(b.buf))
	return id
}

// sortStructural orders node ids by their structural signature
// (ties — only possible for hash collisions, since structural twins are
// already merged — break by id). This is the commutative-input
// normalization: the resulting operand order, which the mapper reads as
// series-stack order, depends on structure alone.
func (b *Builder) sortStructural(ids []int) {
	slices.SortFunc(ids, func(x, y int) int {
		if c := bytes.Compare(b.sigs[x][:], b.sigs[y][:]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
}

// consGate hash-conses one already-normalized gate (core op, >= 2
// structurally sorted operands).
func (b *Builder) consGate(op logic.Op, ops []int) int {
	signed := op
	if b.faults.Flip(PointBadMerge) && op == logic.Or {
		// Deliberate corruption for fault-injection tests: sign the OR
		// as an AND, merging it into any structurally matching AND.
		signed = logic.And
	}
	b.buf = append(b.buf[:0], 'g', byte(signed), '|')
	for _, f := range ops {
		b.buf = append(b.buf, b.sigs[f][:]...)
	}
	id, hit := b.intern(op, ops, sha256.Sum256(b.buf))
	if hit {
		b.c.Merged++
	}
	return id
}

// nextStamp starts a new gate for the mark and count tables.
func (b *Builder) nextStamp() int32 {
	b.stamp++
	return b.stamp
}

// consMonotone normalizes one And/Or/Nand/Nor gate: constant folding,
// idempotent duplicate removal, complement-pair cancellation, then
// structural operand ordering keys the cons lookup. The Nand/Nor wrapper
// becomes an explicit inverter on the core gate.
func (b *Builder) consMonotone(op logic.Op, fanin []int) int {
	core, invert := op, false
	switch op {
	case logic.Nand:
		core, invert = logic.And, true
	case logic.Nor:
		core, invert = logic.Or, true
	}
	// dominant is the constant that forces the core's value; identity
	// fanins drop out.
	dominant := core == logic.Or // Or: const1 dominates; And: const0
	finish := func(id int) int {
		if invert {
			return b.consNot(id)
		}
		return id
	}

	stamp := b.nextStamp()
	ops := b.ops[:0]
	for _, f := range fanin {
		switch b.nodes[f].op {
		case logic.Const0:
			if !dominant {
				b.c.Folded++
				return finish(b.AddConst(false))
			}
			continue // identity for Or
		case logic.Const1:
			if dominant {
				b.c.Folded++
				return finish(b.AddConst(true))
			}
			continue // identity for And
		}
		if b.mark[f] == stamp {
			continue // idempotence: x·x = x, x+x = x
		}
		b.mark[f] = stamp
		ops = append(ops, f)
	}
	b.ops = ops
	// Complement pair: x together with NOT x annihilates the core.
	for _, f := range ops {
		if x, ok := b.isNotOf(f); ok && b.mark[x] == stamp {
			b.c.Folded++
			return finish(b.AddConst(dominant))
		}
	}
	switch len(ops) {
	case 0:
		// Every operand was an identity constant: the empty And is 1,
		// the empty Or is 0.
		b.c.Folded++
		return finish(b.AddConst(!dominant))
	case 1:
		b.c.Folded++
		return finish(ops[0])
	}
	b.sortStructural(ops)
	return finish(b.consGate(core, ops))
}

// consParity normalizes one Xor/Xnor gate. Parity semantics follow
// logic.EvalAll: the gate is the parity of its fanins, complemented for
// Xnor. Const1 fanins and complemented operands toggle the complement;
// identical pairs and Const0 fanins vanish.
func (b *Builder) consParity(op logic.Op, fanin []int) int {
	invert := op == logic.Xnor
	stamp := b.nextStamp()
	order := b.order[:0]
	add := func(f int) {
		if b.mark[f] != stamp {
			b.mark[f] = stamp
			b.count[f] = 0
			order = append(order, f)
		}
		b.count[f]++
	}
	for _, f := range fanin {
		switch b.nodes[f].op {
		case logic.Const0:
			continue
		case logic.Const1:
			invert = !invert
			continue
		}
		// Normalize NOT x to x with a complement toggle, so x and NOT x
		// land on the same parity bucket and cancel.
		if x, ok := b.isNotOf(f); ok {
			invert = !invert
			add(x)
		} else {
			add(f)
		}
	}
	b.order = order
	ops := b.ops[:0]
	for _, f := range order {
		if b.count[f]%2 == 1 {
			ops = append(ops, f) // pairs cancel: x ^ x = 0
		}
	}
	b.ops = ops
	if len(ops) < len(fanin) {
		b.c.Folded++
	}
	finish := func(id int) int {
		if invert {
			return b.consNot(id)
		}
		return id
	}
	switch len(ops) {
	case 0:
		return finish(b.AddConst(false))
	case 1:
		return finish(ops[0])
	}
	b.sortStructural(ops)
	return finish(b.consGate(logic.Xor, ops))
}

// RunContext is Run with fault-injection plumbing: a faultpoint registry
// carried by ctx may fire PointBadMerge. A plain context makes it
// identical to Run.
func RunContext(ctx context.Context, n *logic.Network) *Result {
	// A gate adds at most its core and one inverter: Nand, Nor and Xnor
	// always may, an Xor whenever a complemented or Const1 operand
	// toggles its parity. Each built node holds at most its source
	// gate's fanins, an inverter one; two constants at most.
	nodes, fanins := len(n.Nodes)+2, 0
	for _, nd := range n.Nodes {
		fanins += len(nd.Fanin)
		switch nd.Op {
		case logic.Nand, logic.Nor, logic.Xor, logic.Xnor:
			nodes++
			fanins++
		}
	}
	b := takeBuilder(nodes, fanins)
	b.inputs = slices.Grow(b.inputs, len(n.Inputs))
	b.outputs = slices.Grow(b.outputs, len(n.Outputs))
	b.faults = faultpoint.From(ctx)
	b.c.NodesIn = len(n.Nodes)

	// Phase 1: forward hash-consing pass. repr[i] is the builder id of
	// the node computing the same function as input node i.
	repr := slices.Grow(b.repr[:0], len(n.Nodes))[:len(n.Nodes)]
	b.repr = repr
	for i, nd := range n.Nodes {
		switch nd.Op {
		case logic.Input:
			repr[i] = b.AddInput(nd.Name)
		case logic.Const0, logic.Const1:
			repr[i] = b.AddConst(nd.Op == logic.Const1)
		default:
			repr[i] = b.AddGate(nd.Op, b.faninRepr(repr, nd.Fanin)...)
		}
	}
	for _, po := range n.Outputs {
		b.AddOutput(po.Name, repr[po.Node])
	}

	// Phase 2: DCE. Keep every primary input (the interface) plus
	// everything reachable from a primary output. The worklist is
	// explicit: parser depth caps do not bound programmatically built
	// networks, so recursion depth must not scale with circuit depth.
	keep := slices.Grow(b.keep[:0], len(b.nodes))[:len(b.nodes)]
	b.keep = keep
	clear(keep)
	stack := b.ops[:0]
	push := func(id int) {
		if !keep[id] {
			keep[id] = true
			stack = append(stack, id)
		}
	}
	for _, po := range b.outputs {
		push(po.id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range b.fanin(id) {
			push(f)
		}
	}
	b.ops = stack
	kept, keptFanins := 0, 0
	for id, nd := range b.nodes {
		if nd.op == logic.Input {
			keep[id] = true
		}
		if keep[id] {
			kept++
			keptFanins += int(nd.hi - nd.lo)
		}
	}

	final := logic.New(n.Name)
	final.Grow(kept, keptFanins)
	final.Inputs = make([]int, 0, len(n.Inputs))
	final.Outputs = make([]logic.Output, 0, len(n.Outputs))
	finalOf := slices.Grow(b.finalOf[:0], len(b.nodes))[:len(b.nodes)]
	b.finalOf = finalOf
	for id, nd := range b.nodes {
		if !keep[id] {
			finalOf[id] = -1
			b.c.Dead++
			continue
		}
		switch nd.op {
		case logic.Input:
			finalOf[id] = final.AddInput(nd.name)
		case logic.Const0:
			finalOf[id] = final.AddConst(false)
		case logic.Const1:
			finalOf[id] = final.AddConst(true)
		default:
			fanin := b.in[:0]
			for _, f := range b.fanin(id) {
				fanin = append(fanin, finalOf[f])
			}
			b.in = fanin
			finalOf[id] = final.AddGate(nd.op, fanin...)
		}
	}
	for _, po := range b.outputs {
		final.AddOutput(po.name, finalOf[po.id])
	}

	b.c.NodesOut = len(final.Nodes)
	res := &Result{Network: final, Counters: b.c, Key: b.Key(n.Name)}
	b.Release()
	return res
}

// Key is the structural digest behind Result.Key for a network named
// name: the name, the input names in order, then each output's name and
// signature in order. Strings are length prefixed, so no two interfaces
// share a preimage.
func (b *Builder) Key(name string) [32]byte {
	str := func(s string) {
		b.buf = binary.AppendUvarint(b.buf, uint64(len(s)))
		b.buf = append(b.buf, s...)
	}
	b.buf = b.buf[:0]
	str(name)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(b.inputs)))
	for _, id := range b.inputs {
		str(b.nodes[id].name)
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(len(b.outputs)))
	for _, po := range b.outputs {
		str(po.name)
		b.buf = append(b.buf, b.sigs[po.id][:]...)
	}
	return sha256.Sum256(b.buf)
}

// faninRepr maps a source fanin list through repr into b.in.
func (b *Builder) faninRepr(repr []int, fanin []int) []int {
	in := b.in[:0]
	for _, f := range fanin {
		in = append(in, repr[f])
	}
	b.in = in
	return in
}
