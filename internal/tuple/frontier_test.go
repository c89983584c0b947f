package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func fCost(t Tuple) int { return int(t.NTrans + t.NClock + t.NDisch) }

func TestFrontierInsertDominance(t *testing.T) {
	s := NewSlots(4, 4, true)
	a := Tuple{W: 2, H: 2, NTrans: 5, PDis: 2, PDisBot: 1}
	if !s.InsertPareto(a, fCost) {
		t.Fatal("first insert rejected")
	}
	// Dominated on every axis: rejected.
	worse := Tuple{W: 2, H: 2, NTrans: 6, PDis: 3, PDisBot: 2}
	if s.InsertPareto(worse, fCost) {
		t.Error("dominated tuple accepted")
	}
	// Incomparable (cheaper but more potential points): kept alongside.
	inc := Tuple{W: 2, H: 2, NTrans: 4, PDis: 4, PDisBot: 4}
	if !s.InsertPareto(inc, fCost) {
		t.Error("incomparable tuple rejected")
	}
	if s.Size() != 2 {
		t.Errorf("size = %d, want 2", s.Size())
	}
	// A dominator sweeps both out.
	dom := Tuple{W: 2, H: 2, NTrans: 4, PDis: 2, PDisBot: 1}
	if !s.InsertPareto(dom, fCost) {
		t.Error("dominator rejected")
	}
	if s.Size() != 1 {
		t.Errorf("size after sweep = %d, want 1", s.Size())
	}
}

func TestFrontierSeparatesState(t *testing.T) {
	s := NewSlots(4, 4, true)
	// Same {W,H} and costs, different ParB/HasPI: distinct states, drained
	// par_b-false first.
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 4, ParB: true}, fCost)
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 4, ParB: false}, fCost)
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 4, ParB: false, HasPI: true}, fCost)
	out := drain(s)
	if len(out) != 3 {
		t.Fatalf("size = %d; want 3", len(out))
	}
	if out[0].ParB || out[0].HasPI || out[1].ParB || !out[1].HasPI || !out[2].ParB {
		t.Errorf("state order = %+v", out)
	}
}

func TestFrontierTieKeepsIncumbent(t *testing.T) {
	s := NewSlots(4, 4, true)
	a := Tuple{W: 1, H: 2, NTrans: 3, NGates: 1}
	b := Tuple{W: 1, H: 2, NTrans: 3, NGates: 9} // identical under dominance
	s.InsertPareto(a, fCost)
	if s.InsertPareto(b, fCost) {
		t.Error("exact tie should keep the incumbent")
	}
	if out := drain(s); len(out) != 1 || out[0].NGates != 1 {
		t.Error("incumbent replaced")
	}
}

func TestFrontierCap(t *testing.T) {
	s := NewSlots(4, 4, true)
	// Build a long antichain: cost i, PDis MaxFrontier*2-i (strictly
	// incomparable pairs).
	n := int32(MaxFrontier * 2)
	for i := int32(0); i < n; i++ {
		s.InsertPareto(Tuple{W: 3, H: 3, NTrans: i, PDis: n - i, PDisBot: n - i}, fCost)
	}
	if s.Size() > MaxFrontier {
		t.Errorf("cap not enforced: %d", s.Size())
	}
	// The cheapest entry must have survived the eviction policy.
	out, b := s.Drain(nil, func(a, b Tuple) bool { return fCost(a) < fCost(b) })
	if b < 0 || out[b].NTrans != 0 {
		t.Errorf("cheapest entry evicted: %+v", out)
	}
}

func TestFrontierAllDeterministic(t *testing.T) {
	build := func() []Tuple {
		s := NewSlots(3, 3, true)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			s.InsertPareto(Tuple{
				W: 1 + rng.Int31n(3), H: 1 + rng.Int31n(3),
				NTrans: rng.Int31n(10), PDis: rng.Int31n(5),
				ParB: rng.Intn(2) == 0, HasPI: rng.Intn(2) == 0,
			}, fCost)
		}
		return drain(s)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic order")
		}
	}
}

// TestFrontierTrimPerKey: the budget fallback keeps one tuple per state,
// the first minimal one under less.
func TestFrontierTrimPerKey(t *testing.T) {
	s := NewSlots(4, 4, true)
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 5, PDis: 1, NGates: 1}, fCost)
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 3, PDis: 4, NGates: 2}, fCost)
	s.InsertPareto(Tuple{W: 2, H: 2, NTrans: 4, PDis: 2, NGates: 3}, fCost)
	s.InsertPareto(Tuple{W: 1, H: 1, NTrans: 9, HasPI: true, NGates: 4}, fCost)
	s.TrimPerKey(areaLess)
	out := drain(s)
	if len(out) != 2 || out[0].NGates != 4 || out[1].NGates != 2 {
		t.Errorf("trimmed = %+v, want the {1,1} entry then the cheapest {2,2}", out)
	}
}

// Property: no frontier entry dominates another within its state.
func TestFrontierInvariantQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSlots(2, 2, true)
		for i := 0; i < 50; i++ {
			s.InsertPareto(Tuple{
				W: 1 + rng.Int31n(2), H: 1 + rng.Int31n(2),
				NTrans: rng.Int31n(12), NDisch: rng.Int31n(4),
				PDis: rng.Int31n(6), PDisBot: rng.Int31n(3), Depth: rng.Int31n(3),
			}, fCost)
		}
		for _, entries := range s.slot {
			for i := range entries {
				for j := range entries {
					if i != j && dominates(&entries[i], fCost(entries[i]), &entries[j], fCost(entries[j])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
