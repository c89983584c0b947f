// Package tuple implements the dynamic-programming sub-solution records of
// the domino technology mappers. Following Zhao–Sapatnekar (ICCAD '98) each
// logic node carries one best partial pulldown structure per {W,H}
// (width, height) configuration; the SOI mapper (paper §V) extends the
// 3-tuple {W,H,cost} to a 6-tuple that also tracks p_dis (potential
// discharge points), par_b (parallel branch at the bottom) and whether the
// structure contains primary-input-driven transistors.
//
// The ordering of tuples is supplied by the mapper: the SOI algorithm
// breaks cost ties by p_dis, while the bulk baseline must stay PBE-blind.
package tuple

import "math/bits"

// DerivOp records how a tuple was constructed, for solution traceback.
type DerivOp uint8

const (
	// DerivLeaf is a single transistor driven by a primary input or an
	// inverted primary-input literal.
	DerivLeaf DerivOp = iota
	// DerivGateInput is a single transistor driven by the output of a
	// completed domino gate (the child node's {1,1} gate solution).
	DerivGateInput
	// DerivOr composes two child structures in parallel.
	DerivOr
	// DerivAnd composes two child structures in series; TopIsA records the
	// stack order chosen.
	DerivAnd
)

// Choice identifies one child sub-solution used in a derivation: a node
// and the position of the tuple in that node's candidate slice (see
// Slots.Drain). The entry's own Deriv.Op tells a leaf transistor and a
// completed gate's output apart from a raw structure.
type Choice struct {
	Node, Index int32
}

// Deriv is the traceback record attached to each tuple.
type Deriv struct {
	Op     DerivOp
	TopIsA bool // DerivAnd: A is the top of the series stack
	A, B   Choice
}

// Tuple is one dynamic-programming sub-solution: a partial pulldown
// structure for a logic node. Cost components are kept separately so the
// same engine serves the area, clock-weighted and depth objectives. The
// fields are 32-bit so a tuple stays small to copy: the DP moves tuples
// by value through every combine, insert and candidate slice.
type Tuple struct {
	W, H int32

	// NTrans counts non-clock transistors: the structure's own pulldown
	// devices plus the pulldown, output-inverter and keeper devices of
	// every completed gate beneath it.
	NTrans int32
	// NClock counts clock-driven transistors of completed gates beneath
	// (p-clock and n-clock feet).
	NClock int32
	// NDisch counts p-discharge transistors already materialized beneath
	// (they are clock-driven too, but reported separately as the paper's
	// T_disch).
	NDisch int32
	// OwnDisch is the subset of NDisch materialized inside this partial
	// structure itself (series combinations that buried a parallel
	// bottom), excluding discharges carried in from completed gates
	// beneath. At gate formation it is the DP's prediction of how many
	// p-discharge devices the gate's own pulldown tree will carry, which
	// the structural analysis (internal/pbe) must reproduce exactly; the
	// fuzzing oracles cross-check the two.
	OwnDisch int32
	// NGates counts completed domino gates beneath.
	NGates int32
	// Depth is the number of domino-gate levels beneath the structure
	// (the maximum over the completed gates feeding it).
	Depth int32

	// PDis is the paper's p_dis: potential discharge points that must be
	// discharged unless the structure's bottom reaches ground.
	PDis int32
	// PDisBot is the subset of PDis belonging to the structure's
	// bottom-most parallel stack (all of PDis for a bare parallel
	// composition, 0 when ParB is false). When something is stacked below
	// the structure, exactly these points — plus the new junction — must
	// materialize as discharge devices; the remaining PDis points sit
	// below non-parallel elements and are rescued by grounding the
	// enclosing gate. Tracking the split keeps the DP's discharge count
	// identical to the structural analysis of the flattened tree
	// (internal/pbe) for every association order.
	PDisBot int32
	// ParB is the paper's par_b: the structure has a parallel branch at
	// its bottom.
	ParB bool
	// HasPI reports whether any transistor is driven by a primary input,
	// which forces an n-clock foot at gate formation.
	HasPI bool

	Deriv Deriv
}

// Less is a strict ordering over tuples; a Less(a, b) == true means a is a
// strictly better sub-solution than b.
type Less func(a, b Tuple) bool

// Weights is the scalar objective of a run: a tuple's cost is the
// weighted sum of its non-clock, clock, discharge and depth components.
// Both of the mapper's objectives are such sums — the area objective
// weighs transistors, the depth objective domino levels — so one value,
// set when a run starts, serves either. The arithmetic is int: the
// clock weight has no upper bound.
type Weights struct {
	Trans, Clock, Disch, Depth int
}

// Cost returns t's scalar objective under w.
func (w Weights) Cost(t *Tuple) int {
	return w.Trans*int(t.NTrans) + w.Clock*int(t.NClock) +
		w.Disch*int(t.NDisch) + w.Depth*int(t.Depth)
}

// Slots is the dense table the DP fills for one node at a time: a
// slot per {W,H} shape — per {W,H,par_b,hasPI} state in Pareto mode —
// plus a presence bitmask. It is emptied by Drain after every node, and a
// mapping run reuses one table (the mapper keeps it across runs), so a
// node costs no table allocation. Slot order is the candidate order:
// (W, H) ascending, then par_b false before true, then hasPI false before
// true.
type Slots struct {
	maxW, maxH, states int
	slot               [][]Tuple
	// cost[i][j] is slot[i][j]'s cost under the Weights InsertPareto was
	// given, computed once when the tuple went in and kept in step with
	// the slot by InsertPareto, TrimPerKey and Reset; nil in a
	// single-tuple table, which Insert fills.
	cost    [][]int
	present []uint64
}

// NewSlots returns an empty table for shapes up to maxW×maxH, keeping one
// tuple per shape (Insert) or a frontier per state (InsertPareto).
func NewSlots(maxW, maxH int, pareto bool) *Slots {
	states := 1
	if pareto {
		states = 4
	}
	n := maxW * maxH * states
	s := &Slots{maxW: maxW, maxH: maxH, states: states,
		slot: make([][]Tuple, n), present: make([]uint64, (n+63)/64)}
	backing := make([]Tuple, n)
	for i := range s.slot {
		s.slot[i] = backing[i : i : i+1]
	}
	if pareto {
		s.cost = make([][]int, n)
		costs := make([]int, n)
		for i := range s.cost {
			s.cost[i] = costs[i : i : i+1]
		}
	}
	return s
}

// index returns t's slot, or -1 when its shape exceeds the bounds. The
// mapper tests the bound on a combination's operands before building
// it, so on the DP's path the -1 case only guards the invariant.
func (s *Slots) index(t *Tuple) int {
	if int(t.W) > s.maxW || int(t.H) > s.maxH {
		return -1
	}
	i := (int(t.W-1)*s.maxH + int(t.H-1)) * s.states
	if s.states == 4 {
		if t.ParB {
			i += 2
		}
		if t.HasPI {
			i++
		}
	}
	return i
}

// next returns the first filled slot at or after i, or -1.
func (s *Slots) next(i int) int {
	for w := i >> 6; w < len(s.present); w++ {
		m := s.present[w]
		if w == i>>6 {
			m &^= 1<<(i&63) - 1
		}
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Insert records t if its shape fits and it is the first or a strictly
// better tuple for its slot under less, returning whether the table
// changed. On a full tie the incumbent is kept, so a deterministic
// insertion order yields a deterministic table.
func (s *Slots) Insert(t Tuple, less Less) bool {
	i := s.index(&t)
	if i < 0 {
		return false
	}
	if sl := s.slot[i]; len(sl) > 0 {
		if !less(t, sl[0]) {
			return false
		}
		sl[0] = t
		return true
	}
	s.slot[i] = append(s.slot[i], t)
	s.present[i>>6] |= 1 << (i & 63)
	return true
}

// Size returns the number of tuples held.
func (s *Slots) Size() int {
	n := 0
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		n += len(s.slot[i])
	}
	return n
}

// Drain empties the table, appending its tuples to dst in slot order
// (insertion order within a slot). It returns the extended slice and the
// index in it of the first tuple minimal under best — with one tuple per
// shape, the tie-break on the smaller {W,H} — or -1 if the table was
// empty or best is nil.
func (s *Slots) Drain(dst []Tuple, best Less) ([]Tuple, int) {
	b := -1
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		for _, t := range s.slot[i] {
			if best != nil && (b < 0 || best(t, dst[b])) {
				b = len(dst)
			}
			dst = append(dst, t)
		}
	}
	s.Reset()
	return dst, b
}

// Reset empties the table without reading its tuples. The grown slots
// keep their capacity, so a reused table fills again without allocating.
func (s *Slots) Reset() {
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		s.slot[i] = s.slot[i][:0]
		if s.cost != nil {
			s.cost[i] = s.cost[i][:0]
		}
	}
	clear(s.present)
}
