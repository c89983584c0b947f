package pbe

import (
	"fmt"
	"slices"
	"testing"

	"soidomino/internal/sp"
)

// fuzzBytes feeds a fixture generator from fuzz input; past its end it
// reads zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzTree builds a fixture tree with NewSeries/NewParallel from the
// input: leaves over inputs a–f (some complemented) and gates g0–g2,
// compositions of two or three children, at most depth levels deep.
func fuzzTree(b *fuzzBytes, depth int) *sp.Tree {
	c := b.next()
	if depth == 0 || c%3 == 0 {
		v := b.next()
		if v%5 == 4 {
			return sp.NewLeaf(fmt.Sprintf("g%d", v%3), false, int(v%3))
		}
		return sp.NewLeaf(string(rune('a'+v%6)), v&8 != 0, -1)
	}
	children := make([]*sp.Tree, 2+int(c>>2)%2)
	for i := range children {
		children[i] = fuzzTree(b, depth-1)
	}
	if c&0x80 != 0 {
		return sp.NewSeries(children...)
	}
	return sp.NewParallel(children...)
}

// FuzzFlatPulldown holds the flat pulldown form to the reference
// recursive tree walks of reference_test.go: a random fixture tree is
// flattened, and its metrics, conduction, PBE analysis, stack
// rearrangements and sequence-aware pruning must match what the walks
// compute on the tree.
func FuzzFlatPulldown(f *testing.F) {
	f.Add([]byte{0x81, 0x01, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Add([]byte{0x85, 0x05, 0x81, 0, 0, 0, 1, 0, 2, 0, 9, 0, 4})
	f.Add([]byte{0x01, 0x81, 0, 0, 0, 8, 0x81, 0, 9, 0, 1, 0, 4, 0x84, 0, 2, 0, 3, 0, 14})
	f.Add([]byte{0x86, 0x02, 0x81, 0, 1, 0, 2, 0, 3, 0x81, 0, 4, 0, 5, 0x02, 0, 6, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		tr := fuzzTree(&in, 3)
		s, names := sp.Flatten(tr)

		m, err := s.Measure()
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if m.Width != refWidth(tr) || m.Height != refHeight(tr) || s.Width() != m.Width || s.Height() != m.Height {
			t.Fatalf("%s: shape {%d,%d}, reference {%d,%d}", tr, m.Width, m.Height, refWidth(tr), refHeight(tr))
		}
		if n := refTransistors(tr); m.Transistors != n || s.Transistors() != n {
			t.Fatalf("%s: %d/%d transistors, reference %d", tr, m.Transistors, s.Transistors(), n)
		}
		if pi := refHasPI(tr); m.HasPI != pi || s.HasPI() != pi {
			t.Fatalf("%s: has-PI %v/%v, reference %v", tr, m.HasPI, s.HasPI(), pi)
		}

		// Conduction under every assignment drawn from the rest of the
		// input, plus all-low and all-high.
		for k := 0; k < 4; k++ {
			pick := in.next()
			values := map[string]bool{}
			inputs, gates := make([]bool, len(names)), make([]bool, 3)
			for i, name := range names {
				inputs[i] = k == 3 || (k > 0 && pick>>(i%8)&1 == 1)
				values[name] = inputs[i]
			}
			for g := range gates {
				gates[g] = k == 3 || (k > 0 && pick>>(5+g)&1 == 1)
				values[fmt.Sprintf("g%d", g)] = gates[g]
			}
			if got, want := s.Conducts(inputs, gates), refConducts(tr, values); got != want {
				t.Fatalf("%s under %v: conducts %v, reference %v", tr, values, got, want)
			}
		}

		want := refAnalyze(tr)
		a := Analyze(s, nil, nil)
		if !slices.Equal(a.Immediate, want.Immediate) || !slices.Equal(a.Potential, want.Potential) || a.ParB != want.ParB {
			t.Fatalf("%s: analysis %v/%v par_b %v, reference %v/%v par_b %v",
				tr, a.Immediate, a.Potential, a.ParB, want.Immediate, want.Potential, want.ParB)
		}
		if PotentialCount(s) != len(want.Potential) {
			t.Fatalf("%s: PotentialCount %d, reference %d", tr, PotentialCount(s), len(want.Potential))
		}
		if s.ParallelAtBottom() != want.ParB {
			t.Fatalf("%s: ParallelAtBottom %v, reference par_b %v", tr, s.ParallelAtBottom(), want.ParB)
		}

		if got, want := render(Rearrange(nil, s), names), refRearrange(tr).String(); got != want {
			t.Fatalf("%s: Rearrange %s, reference %s", tr, got, want)
		}
		if got, want := render(RearrangeDeep(nil, s), names), refRearrangeDeep(tr).String(); got != want {
			t.Fatalf("%s: RearrangeDeep %s, reference %s", tr, got, want)
		}

		if got, want := PruneUnexcitable(s, a.Immediate), refPrune(tr, a.Immediate); !slices.Equal(got, want) {
			t.Fatalf("%s: pruned to %v, reference %v", tr, got, want)
		}
	})
}
