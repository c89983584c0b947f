package soidomino

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soidomino/internal/benchfmt"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
	"soidomino/internal/sp"
)

// figure2Network builds the paper's running example (A+B+C)*D.
func figure2Network() *logic.Network {
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))
	return n
}

// randomTree builds a random series-parallel pulldown tree for the
// analysis micro-benchmarks, which flatten it.
func randomTree(rng *rand.Rand, depth int) *sp.Tree {
	if depth == 0 || rng.Intn(3) == 0 {
		return sp.NewLeaf(string(rune('a'+rng.Intn(8))), false, -1)
	}
	k := 2 + rng.Intn(2)
	children := make([]*sp.Tree, k)
	for i := range children {
		children[i] = randomTree(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return sp.NewSeries(children...)
	}
	return sp.NewParallel(children...)
}

// testdataCircuits loads every circuit under testdata/ (the committed
// BLIF/bench files plus the fuzz corpus), the circuit set the
// strash-determinism gate sweeps.
func testdataCircuits(t testing.TB) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	add := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var n *logic.Network
		if strings.HasSuffix(path, ".bench") {
			n, err = benchfmt.Parse(path, f)
		} else {
			n, err = blif.Parse(f)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = n
	}
	for _, pat := range []string{"testdata/*.blif", "testdata/*.bench", "testdata/fuzz/corpus/*.blif"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			add(p)
		}
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 testdata circuits, found %d", len(out))
	}
	return out
}
