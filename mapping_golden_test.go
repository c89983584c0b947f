package soidomino

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// mappingVariants are the option sets the mapping golden pins: the
// paper's defaults, the hashed PBE-blind stack order, the Pareto
// frontier with and without a binding tuple budget, the depth objective
// (alone and under Pareto), and a clock-weighted Pareto run on a small
// 3×4 shape bound where the bound rejects most combinations.
var mappingVariants = []struct {
	name string
	opt  func(*mapper.Options)
}{
	{"default", func(*mapper.Options) {}},
	{"hashed", func(o *mapper.Options) { o.BaselineStackOrder = mapper.OrderHashed }},
	{"pareto", func(o *mapper.Options) { o.Pareto = true }},
	{"pareto-b8", func(o *mapper.Options) { o.Pareto = true; o.TupleBudget = 8 }},
	{"pareto-depth", func(o *mapper.Options) { o.Pareto = true; o.Objective = mapper.Depth }},
	{"pareto-k3-w3h4", func(o *mapper.Options) {
		o.Pareto = true
		o.ClockWeight = 3
		o.MaxWidth, o.MaxHeight = 3, 4
	}},
	{"depth", func(o *mapper.Options) { o.Objective = mapper.Depth }},
}

// mappingLines renders the golden file's lines: for every registry
// circuit, option variant and algorithm, the sha256 of the service
// encoding of the result, the DP's combine counters and the degraded
// flag.
func mappingLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range bench.Names() {
		p, err := report.Prepare(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range mappingVariants {
			opt := mapper.DefaultOptions()
			v.opt(&opt)
			for _, a := range []report.Algorithm{report.Domino, report.RS, report.SOI} {
				var st obs.Stats
				res, err := p.Map(obs.WithStats(context.Background(), &st), a, opt, false)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, v.name, a.Key(), err)
				}
				enc, err := service.EncodeJSON(service.NewMapResult(name, p, res))
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s %x gen=%d or=%d and=%d flip=%d disch=%d kept=%d checks=%d degraded=%t",
					name, v.name, a.Key(), sha256.Sum256(enc),
					st.TuplesGenerated, st.CombineOr, st.CombineAndOrdered, st.CombineAndReordered,
					st.DPDischargeCharges, st.TuplesKept, st.CancelChecks, res.Degraded))
			}
		}
	}
	return lines
}

// TestMappingGolden pins every mapper's output and DP work: the encoded
// result and the combine counters of each registry circuit under each
// option variant and algorithm. A change to the dynamic program that is
// meant to be behaviour-preserving — a speed-up, a refactor of the
// combine loop or the frontier — must pass it unchanged; after a
// deliberate change to what the mappers produce or count, regenerate
// with:
//
//	go test -run TestMappingGolden -update .
func TestMappingGolden(t *testing.T) {
	got := strings.Join(mappingLines(t), "\n") + "\n"
	const golden = "testdata/mapping.golden"
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
				t.Fatalf("mapping drift at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("mapping vectors differ in length: %d vs %d lines", len(gl), len(wl))
	}
}
