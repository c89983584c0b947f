package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func areaCost(t Tuple) int { return int(t.NTrans + t.NClock + t.NDisch) }

// areaLess mirrors the SOI mapper's ordering: cost, then p_dis.
func areaLess(a, b Tuple) bool {
	if ca, cb := areaCost(a), areaCost(b); ca != cb {
		return ca < cb
	}
	return a.PDis < b.PDis
}

// drain empties s and returns its tuples in slot order.
func drain(s *Slots) []Tuple {
	out, _ := s.Drain(nil, areaLess)
	return out
}

// TestTupleSize guards the compact layout: the DP copies tuples by value
// through every combine and insert, so their size is its memory traffic.
func TestTupleSize(t *testing.T) {
	if sz := unsafe.Sizeof(Tuple{}); sz > 96 {
		t.Errorf("sizeof(Tuple) = %d, want <= 96", sz)
	}
	if sz := unsafe.Sizeof(Choice{}); sz > 24 {
		t.Errorf("sizeof(Choice) = %d, want <= 24", sz)
	}
}

func TestInsertKeepsBest(t *testing.T) {
	s := NewSlots(4, 4, false)
	if !s.Insert(Tuple{W: 2, H: 2, NTrans: 10}, areaLess) {
		t.Error("first insert should succeed")
	}
	if !s.Insert(Tuple{W: 2, H: 2, NTrans: 4}, areaLess) {
		t.Error("better insert should succeed")
	}
	if s.Insert(Tuple{W: 2, H: 2, NTrans: 9}, areaLess) {
		t.Error("worse insert should be rejected")
	}
	if s.Size() != 1 {
		t.Errorf("Size = %d, want 1", s.Size())
	}
	if got := drain(s); got[0].NTrans != 4 {
		t.Errorf("kept NTrans = %d, want 4", got[0].NTrans)
	}
}

func TestInsertTieKeepsIncumbent(t *testing.T) {
	s := NewSlots(4, 4, false)
	first := Tuple{W: 2, H: 2, NTrans: 4, NGates: 1}
	second := Tuple{W: 2, H: 2, NTrans: 4, NGates: 2}
	s.Insert(first, areaLess)
	if s.Insert(second, areaLess) {
		t.Error("tie should keep the incumbent")
	}
	if drain(s)[0].NGates != 1 {
		t.Error("incumbent replaced on tie")
	}
}

func TestInsertPDisTieBreak(t *testing.T) {
	s := NewSlots(4, 4, false)
	s.Insert(Tuple{W: 2, H: 2, NTrans: 4, PDis: 3}, areaLess)
	if !s.Insert(Tuple{W: 2, H: 2, NTrans: 4, PDis: 1}, areaLess) {
		t.Error("lower p_dis at equal cost should win (paper's tie-break)")
	}
	if drain(s)[0].PDis != 1 {
		t.Error("p_dis tie-break not applied")
	}
}

func TestInsertSeparateKeys(t *testing.T) {
	s := NewSlots(4, 4, false)
	s.Insert(Tuple{W: 1, H: 2, NTrans: 2}, areaLess)
	s.Insert(Tuple{W: 2, H: 1, NTrans: 9}, areaLess)
	// The paper's table is one tuple per {W,H}: par_b/hasPI do not split it.
	s.Insert(Tuple{W: 2, H: 1, NTrans: 9, ParB: true, HasPI: true}, areaLess)
	if s.Size() != 2 {
		t.Errorf("Size = %d, want 2", s.Size())
	}
}

// TestSlotsRejectOutOfBounds: shapes beyond the table's bounds are never
// stored, in either mode, and the bounds themselves fit.
func TestSlotsRejectOutOfBounds(t *testing.T) {
	for _, pareto := range []bool{false, true} {
		s := NewSlots(2, 3, pareto)
		ins := func(tu Tuple) bool {
			if pareto {
				return s.InsertPareto(tu, areaCost)
			}
			return s.Insert(tu, areaLess)
		}
		if ins(Tuple{W: 3, H: 1}) || ins(Tuple{W: 1, H: 4}) {
			t.Errorf("pareto=%v: out-of-bounds shape stored", pareto)
		}
		if !ins(Tuple{W: 2, H: 3, ParB: true, HasPI: true}) {
			t.Errorf("pareto=%v: in-bounds corner shape rejected", pareto)
		}
		if s.Size() != 1 {
			t.Errorf("pareto=%v: Size = %d, want 1", pareto, s.Size())
		}
	}
}

func TestBestEmptyTable(t *testing.T) {
	s := NewSlots(4, 4, false)
	if out, b := s.Drain(nil, areaLess); b != -1 || len(out) != 0 {
		t.Errorf("Drain on empty table = %v, %d; want nothing, -1", out, b)
	}
}

func TestBestPicksMinimum(t *testing.T) {
	s := NewSlots(4, 4, false)
	s.Insert(Tuple{W: 1, H: 2, NTrans: 7}, areaLess)
	s.Insert(Tuple{W: 2, H: 2, NTrans: 4}, areaLess)
	s.Insert(Tuple{W: 2, H: 1, NTrans: 16}, areaLess)
	out, b := s.Drain(nil, areaLess)
	if b < 0 || out[b].NTrans != 4 {
		t.Errorf("best = %d in %+v", b, out)
	}
}

func TestBestDeterministicOnFullTie(t *testing.T) {
	// Identical tuples except W/H: the {W,H}-smallest must win every time.
	s := NewSlots(4, 4, false)
	for trial := 0; trial < 50; trial++ {
		s.Insert(Tuple{W: 3, H: 1, NTrans: 4}, areaLess)
		s.Insert(Tuple{W: 1, H: 3, NTrans: 4}, areaLess)
		s.Insert(Tuple{W: 2, H: 2, NTrans: 4}, areaLess)
		out, b := s.Drain(nil, areaLess)
		if out[b].W != 1 || out[b].H != 3 {
			t.Fatalf("trial %d: best picked {%d,%d}, want {1,3}", trial, out[b].W, out[b].H)
		}
	}
}

// TestSortedKeys: Drain hands tuples out in (W, H) order whatever the
// insertion order, appends after dst, and leaves the table empty for reuse.
func TestSortedKeys(t *testing.T) {
	s := NewSlots(3, 3, false)
	for _, k := range [][2]int32{{3, 1}, {1, 2}, {2, 2}, {1, 1}, {2, 1}} {
		s.Insert(Tuple{W: k[0], H: k[1]}, areaLess)
	}
	prefix := []Tuple{{NGates: 7}}
	out, _ := s.Drain(prefix, areaLess)
	want := [][2]int32{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	if len(out) != 1+len(want) || out[0].NGates != 7 {
		t.Fatalf("Drain = %+v", out)
	}
	for i, k := range want {
		if out[1+i].W != k[0] || out[1+i].H != k[1] {
			t.Fatalf("slot %d = {%d,%d}, want %v", i, out[1+i].W, out[1+i].H, k)
		}
	}
	if s.Size() != 0 || len(drain(s)) != 0 {
		t.Error("Drain left tuples behind")
	}
}

// refTable is the map-based reference the slot table must agree with:
// one tuple per {W,H} (or a frontier per {W,H,par_b,hasPI} state), read
// back in sorted-key, insertion order.
type refTable struct {
	maxW, maxH int32
	pareto     bool
	m          map[[4]int32][]Tuple
}

func (r *refTable) key(t Tuple) [4]int32 {
	if !r.pareto {
		return [4]int32{t.W, t.H}
	}
	k := [4]int32{t.W, t.H}
	if t.ParB {
		k[2] = 1
	}
	if t.HasPI {
		k[3] = 1
	}
	return k
}

func (r *refTable) insert(t Tuple) {
	if t.W > r.maxW || t.H > r.maxH {
		return
	}
	k := r.key(t)
	entries := r.m[k]
	if !r.pareto {
		if len(entries) == 0 || areaLess(t, entries[0]) {
			r.m[k] = []Tuple{t}
		}
		return
	}
	dom := func(a, b Tuple) bool {
		return areaCost(a) <= areaCost(b) && a.PDis <= b.PDis && a.PDisBot <= b.PDisBot && a.Depth <= b.Depth
	}
	var keep []Tuple
	for _, e := range entries {
		if dom(e, t) {
			return
		}
		if !dom(t, e) {
			keep = append(keep, e)
		}
	}
	keep = append(keep, t)
	if len(keep) > MaxFrontier {
		worst := 0
		for i := range keep {
			ci, cw := areaCost(keep[i]), areaCost(keep[worst])
			if ci > cw || (ci == cw && keep[i].PDis > keep[worst].PDis) {
				worst = i
			}
		}
		keep = append(keep[:worst], keep[worst+1:]...)
	}
	r.m[k] = keep
}

func (r *refTable) trim() {
	for k, entries := range r.m {
		best := 0
		for i := range entries {
			if areaLess(entries[i], entries[best]) {
				best = i
			}
		}
		r.m[k] = []Tuple{entries[best]}
	}
}

// all returns the entries in sorted-key order and the index of the first
// minimal one.
func (r *refTable) all() ([]Tuple, int) {
	var keys [][4]int32
	for k := range r.m {
		keys = append(keys, k)
	}
	less := func(a, b [4]int32) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var out []Tuple
	best := -1
	for _, k := range keys {
		for _, t := range r.m[k] {
			if best < 0 || areaLess(t, out[best]) {
				best = len(out)
			}
			out = append(out, t)
		}
	}
	return out, best
}

// Property: over random insert/trim/drain sequences — one reused table,
// as a DP worker uses it — the slot table matches the map reference
// exactly: which tuple an insert keeps (exact ties keep the incumbent),
// key order, frontier order within a key, MaxFrontier eviction,
// TrimPerKey, and the first-minimal best.
func TestTableInvariantsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	f := func(seed int64, pareto bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSlots(3, 4, pareto)
		for node := 0; node < 4; node++ {
			ref := &refTable{maxW: 3, maxH: 4, pareto: pareto, m: map[[4]int32][]Tuple{}}
			n := 1 + rng.Intn(120)
			// A crowded node piles near-antichains onto one state so
			// frontiers outgrow MaxFrontier and eviction runs.
			crowded := pareto && rng.Intn(2) == 0
			for i := 0; i < n; i++ {
				tu := Tuple{
					W: 1 + rng.Int31n(4), H: 1 + rng.Int31n(5),
					NTrans: rng.Int31n(40), NDisch: rng.Int31n(4),
					PDis: rng.Int31n(40), PDisBot: rng.Int31n(3), Depth: rng.Int31n(3),
					ParB: rng.Intn(2) == 0, HasPI: rng.Intn(2) == 0,
					NGates: int32(i), // identifies the inserted tuple
				}
				if crowded {
					tu.W, tu.H, tu.ParB, tu.HasPI = 1, 1, false, false
					tu.PDis = 45 - tu.NTrans + rng.Int31n(3)
				}
				if pareto {
					s.InsertPareto(tu, areaCost)
				} else {
					s.Insert(tu, areaLess)
				}
				ref.insert(tu)
			}
			if pareto && rng.Intn(3) == 0 {
				s.TrimPerKey(areaLess)
				ref.trim()
			}
			want, wantBest := ref.all()
			if s.Size() != len(want) {
				return false
			}
			got, gotBest := s.Drain(nil, areaLess)
			if len(got) != len(want) || gotBest != wantBest {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
