package soidomino

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
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
// (alone and under Pareto), a clock-weighted Pareto run on a small
// 3×4 shape bound where the bound rejects most combinations, and the
// sequence-aware discharge pruning (pbe.PruneUnexcitable).
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
	{"seq", func(o *mapper.Options) { o.SequenceAware = true }},
}

// mappingRun is one line of the golden file: a registry circuit, an
// index into mappingVariants and an algorithm.
type mappingRun struct {
	circuit string
	variant int
	algo    report.Algorithm
}

// mappingRuns lists the golden file's runs in its line order: for every
// registry circuit, option variant and algorithm.
func mappingRuns() []mappingRun {
	var runs []mappingRun
	for _, name := range bench.Names() {
		for v := range mappingVariants {
			for _, a := range []report.Algorithm{report.Domino, report.RS, report.SOI} {
				runs = append(runs, mappingRun{name, v, a})
			}
		}
	}
	return runs
}

// mappingLine maps one run on its prepared pipeline and renders its
// golden line: the sha256 of the service encoding of the result, the
// DP's combine counters and the degraded flag.
func mappingLine(t *testing.T, p *report.Pipeline, r mappingRun) string {
	t.Helper()
	v := mappingVariants[r.variant]
	opt := mapper.DefaultOptions()
	v.opt(&opt)
	var st obs.Stats
	res, err := p.Map(obs.WithStats(context.Background(), &st), r.algo, opt, false)
	if err != nil {
		t.Fatalf("%s %s %s: %v", r.circuit, v.name, r.algo.Key(), err)
	}
	enc, err := service.EncodeJSON(service.NewMapResult(r.circuit, p, res))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s %s %x gen=%d or=%d and=%d flip=%d disch=%d kept=%d checks=%d degraded=%t",
		r.circuit, v.name, r.algo.Key(), sha256.Sum256(enc),
		st.TuplesGenerated, st.CombineOr, st.CombineAndOrdered, st.CombineAndReordered,
		st.DPDischargeCharges, st.TuplesKept, st.CancelChecks, res.Degraded)
}

// preparedPipelines prepares every registry circuit once.
func preparedPipelines(t *testing.T) map[string]*report.Pipeline {
	t.Helper()
	pipes := make(map[string]*report.Pipeline)
	for _, name := range bench.Names() {
		p, err := report.Prepare(name)
		if err != nil {
			t.Fatal(err)
		}
		pipes[name] = p
	}
	return pipes
}

// mappingLines renders the golden file's lines in order.
func mappingLines(t *testing.T) []string {
	t.Helper()
	pipes := preparedPipelines(t)
	var lines []string
	for _, r := range mappingRuns() {
		lines = append(lines, mappingLine(t, pipes[r.circuit], r))
	}
	return lines
}

// readMappingGolden returns the golden file's lines.
func readMappingGolden(t *testing.T) []string {
	t.Helper()
	want, err := os.ReadFile(mappingGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	return strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
}

const mappingGolden = "testdata/mapping.golden"

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
	if *updateKeys {
		if err := os.WriteFile(mappingGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(mappingGolden)
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

// TestMappingGoldenShuffled maps every golden run again in one process,
// in a shuffled order, so the mapper's pooled run state is reused across
// circuits, shapes, modes and algorithms: each run's line must still
// equal the golden's. A workspace that leaks a table, a candidate or a
// count from one run into the next shows here.
func TestMappingGoldenShuffled(t *testing.T) {
	want := readMappingGolden(t)
	runs := mappingRuns()
	if len(runs) != len(want) {
		t.Fatalf("golden has %d lines for %d runs", len(want), len(runs))
	}
	pipes := preparedPipelines(t)
	order := rand.New(rand.NewSource(31)).Perm(len(runs))
	for _, i := range order {
		if got := mappingLine(t, pipes[runs[i].circuit], runs[i]); got != want[i] {
			t.Fatalf("run %d out of order:\n  got:  %s\n  want: %s", i+1, got, want[i])
		}
	}
}

// flipCtx is a context whose Err turns to context.Canceled after a fixed
// number of Err calls, so a run is canceled at a chosen checkpoint.
type flipCtx struct {
	context.Context
	calls, after int64
}

func (c *flipCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestMappingGoldenAfterCancel cancels Pareto runs at their
// checkpoints — inside a node, too, leaving the slot table half filled
// and candidate slices half written — and after each one maps the same
// run afresh: it must give the golden line, so a canceled run's state
// never reaches the next run. mux is swept at every checkpoint under
// each Pareto variant, dalu at every 13th.
func TestMappingGoldenAfterCancel(t *testing.T) {
	want := readMappingGolden(t)
	pipes := map[string]*report.Pipeline{}
	inLoop := 0
	for i, r := range mappingRuns() {
		variant := mappingVariants[r.variant].name
		stride := int64(0)
		switch {
		case r.circuit == "mux" && strings.HasPrefix(variant, "pareto"):
			stride = 1
		case r.circuit == "dalu" && variant == "pareto" && r.algo == report.SOI:
			stride = 13
		default:
			continue
		}
		p := pipes[r.circuit]
		if p == nil {
			var err error
			if p, err = report.Prepare(r.circuit); err != nil {
				t.Fatal(err)
			}
			pipes[r.circuit] = p
		}
		opt := mapper.DefaultOptions()
		mappingVariants[r.variant].opt(&opt)
		for after := int64(0); ; after += stride {
			_, err := p.Map(&flipCtx{Context: context.Background(), after: after}, r.algo, opt, false)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			if strings.Contains(err.Error(), "canceled inside node") {
				inLoop++
			}
			if got := mappingLine(t, p, r); got != want[i] {
				t.Fatalf("after a run canceled at check %d (%v):\n  got:  %s\n  want: %s", after, err, got, want[i])
			}
		}
	}
	if inLoop == 0 {
		t.Fatal("no run was canceled inside a node")
	}
	t.Logf("%d runs canceled inside a node", inLoop)
}
