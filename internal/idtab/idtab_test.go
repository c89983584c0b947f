package idtab

import (
	"math/rand"
	"os"
	"testing"
)

// set is a Table used as the front end uses one: ids name keys held
// outside the table (keyOf), and a probe compares them in place.
type set struct {
	tab   Table
	keyOf []uint64 // per id
	hash  func(key uint64) uint64
}

func (s *set) hashID(id int) uint64 { return s.hash(s.keyOf[id]) }

// intern returns the id entered for key, or enters key under id.
func (s *set) intern(key uint64, id int) (int, bool) {
	p := s.tab.Probe(s.hash(key))
	for got, ok := p.Next(); ok; got, ok = p.Next() {
		if s.keyOf[got] == key {
			return got, true
		}
	}
	s.keyOf[id] = key
	p.Insert(id, s.hashID)
	return id, false
}

func mix(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	return k ^ k>>32
}

func TestTableInternsDistinctKeys(t *testing.T) {
	s := &set{keyOf: make([]uint64, 16), hash: mix}
	s.tab.Reset(1) // grows twice on the way to five keys
	for i, k := range []uint64{7, 9, 7, 11, 9, 13, 15, 7} {
		id, found := s.intern(k, i)
		want := map[uint64]int{7: 0, 9: 1, 11: 3, 13: 5, 15: 6}[k]
		if id != want || found != (id != i) {
			t.Errorf("key %d at step %d: id %d found %v, want id %d", k, i, id, found, want)
		}
	}
	if s.tab.n != 5 || 2*s.tab.n > len(s.tab.slots) {
		t.Errorf("%d ids in %d slots, want 5 at most half full", s.tab.n, len(s.tab.slots))
	}
}

// TestTableMatchesMap interns random keys under random distinct ids and
// checks every answer against a Go map: with a mixing hash and with a
// constant one, where every key collides; and, on one table, a large
// run followed by a small one that grows inside the large run's backing.
func TestTableMatchesMap(t *testing.T) {
	const ids = 4096
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		hash  func(uint64) uint64
		sizes []int // Reset hint per run; each run interns twice as many keys
	}{
		{"mix", mix, []int{100, 1000}},
		{"constant", func(uint64) uint64 { return 42 }, []int{30, 1}},
		{"large then small", mix, []int{1500, 3, 0, 700}},
	} {
		s := &set{keyOf: make([]uint64, ids), hash: tc.hash}
		for _, size := range tc.sizes {
			s.tab.Reset(size)
			ref := map[uint64]int{}
			perm := rng.Perm(ids)
			for step := range 2 * max(size, 8) {
				key := uint64(rng.Intn(3 * max(size, 8))) // about half repeat
				id, found := s.intern(key, perm[step])
				want, seen := ref[key]
				if !seen {
					want = perm[step]
					ref[key] = want
				}
				if id != want || found != seen {
					t.Fatalf("%s, run of %d: key %d: id %d found %v, want %d %v",
						tc.name, size, key, id, found, want, seen)
				}
			}
			if s.tab.n != len(ref) || 2*s.tab.n > len(s.tab.slots) {
				t.Fatalf("%s, run of %d: %d ids in %d slots, want %d at most half full",
					tc.name, size, s.tab.n, len(s.tab.slots), len(ref))
			}
		}
	}
}

// TestTableAllocs is the `make dp-allocs` guard on the table's reuse: a
// warm table allocates nothing, whether a run fits its Reset size or
// doubles past it inside the backing an earlier, larger run left.
func TestTableAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	const keys = 2000
	s := &set{keyOf: make([]uint64, keys), hash: mix}
	run := func(size int) {
		s.tab.Reset(size)
		for i := range keys {
			s.intern(uint64(i), i)
		}
	}
	run(keys)
	for _, size := range []int{keys, 4} {
		if allocs := testing.AllocsPerRun(10, func() { run(size) }); allocs != 0 {
			t.Errorf("a warm run of %d keys after Reset(%d) allocates %.0f times, want 0", keys, size, allocs)
		}
	}
}
