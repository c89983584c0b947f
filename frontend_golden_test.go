package soidomino

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/strash"
	"soidomino/internal/unate"
)

// frontEndRandomSeeds is how many seeded bench.Random networks the
// front-end golden covers, on top of the registry circuits.
const frontEndRandomSeeds = 600

// frontEndRandom is the seed'th random network of the golden: the
// gate count, wide-gate and constant fractions (and the input and
// output counts) vary with the seed so the set reaches balanced trees,
// XOR expansion, constant folding and both-phase duplication.
func frontEndRandom(seed int64) *logic.Network {
	p := bench.DefaultRandParams(seed)
	p.Inputs = 2 + int(seed%7)
	p.Outputs = 1 + int(seed%5)
	p.Gates = 1 + int(seed*37%90)
	p.WideFrac = float64(seed%6) / 5
	p.ConstFrac = float64(seed%4) * 0.1
	p.PIOutputs = seed%3 != 0
	return bench.Random(p)
}

// frontEnd lowers src to the unate network the DP maps.
func frontEnd(src *logic.Network) (*logic.Network, int, error) {
	d, err := unate.Decompose(src)
	if err != nil {
		return nil, 0, err
	}
	u, err := d.Convert()
	if err != nil {
		return nil, 0, err
	}
	return u.Network, u.DuplicatedNodes, nil
}

// frontEndLines renders the golden file's lines: for every registry
// circuit and every seeded random network, strash off and on, the
// sha256 of the unate network's Dump and the duplicated-gate count.
func frontEndLines(t *testing.T) []string {
	t.Helper()
	type source struct {
		label string
		n     *logic.Network
	}
	var sources []source
	for _, name := range bench.Names() {
		sources = append(sources, source{name, bench.MustBuild(name)})
	}
	for seed := int64(1); seed <= frontEndRandomSeeds; seed++ {
		sources = append(sources, source{fmt.Sprintf("random/%d", seed), frontEndRandom(seed)})
	}
	var lines []string
	for _, src := range sources {
		for _, mode := range []string{"off", "on"} {
			n := src.n
			if mode == "on" {
				n = strash.Run(n).Network
			}
			u, dup, err := frontEnd(n)
			if err != nil {
				t.Fatalf("%s strash=%s: %v", src.label, mode, err)
			}
			lines = append(lines, fmt.Sprintf("%s strash=%s %x dup=%d",
				src.label, mode, sha256.Sum256([]byte(u.Dump())), dup))
		}
	}
	return lines
}

// TestFrontEndGolden pins the front end (decompose and unate) node for
// node: ids, fanin order, names, constants and the duplication count
// of the network the DP maps, for all registry circuits and a seeded
// random set, strash off and on. A change to the lowering that is meant
// to be behaviour-preserving must pass it unchanged; after a deliberate
// change to the unate network's shape, regenerate with:
//
//	go test -run TestFrontEndGolden -update .
func TestFrontEndGolden(t *testing.T) {
	got := strings.Join(frontEndLines(t), "\n") + "\n"
	const golden = "testdata/frontend.golden"
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("front-end drift at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("front-end vectors differ in length: %d vs %d lines", len(gl), len(wl))
	}
}
