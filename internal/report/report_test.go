package report

import (
	"context"
	"slices"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
)

func TestPrepareUnknown(t *testing.T) {
	if _, err := Prepare("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// TestPrepareRejectsDuplicateInputNames: a network built in code with two
// inputs of one name is refused before mapping, with strash on and off.
func TestPrepareRejectsDuplicateInputNames(t *testing.T) {
	n := logic.New("dup")
	n.AddOutput("f", n.AddGate(logic.Or, n.AddInput("x"), n.AddInput("x")))
	for _, off := range []bool{false, true} {
		if _, err := PrepareNetworkMode(context.Background(), n, off); err == nil || !strings.Contains(err.Error(), "duplicate input name") {
			t.Errorf("strash off=%v: PrepareNetworkMode = %v, want a duplicate-name error", off, err)
		}
	}
}

// TestAlgorithmTable pins the one algorithm dispatch: every wire key
// parses back to its row, Run maps with the row's mapper (the result
// names the paper algorithm String returns), and an unknown key gets the
// service's 400 text.
func TestAlgorithmTable(t *testing.T) {
	p, err := Prepare("mux")
	if err != nil {
		t.Fatal(err)
	}
	want := map[Algorithm][2]string{
		Domino: {"domino", "Domino_Map"},
		RS:     {"rs", "RS_Map"},
		SOI:    {"soi", "SOI_Domino_Map"},
		RSDeep: {"rsdeep", "RS_Map_deep"},
	}
	for a, names := range want {
		if a.Key() != names[0] || a.String() != names[1] {
			t.Errorf("algorithm %d: key %q name %q, want %q %q", a, a.Key(), a.String(), names[0], names[1])
		}
		if got, err := ParseAlgorithm(a.Key()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.Key(), got, err, a)
		}
		res, err := a.Run(context.Background(), p.Unate, mapper.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Algorithm != a.String() {
			t.Errorf("%s.Run mapped with %q", a, res.Algorithm)
		}
	}
	_, err = ParseAlgorithm("bogus")
	if err == nil || err.Error() != `unknown algorithm "bogus" (want domino, rs, rsdeep or soi)` {
		t.Errorf("ParseAlgorithm(bogus) error = %v", err)
	}
}

// TestPipelineMapObserved: Map times the audit like every other phase —
// charged to the context's obs.Stats and recorded in its trace hub as
// "audit <net>".
func TestPipelineMapObserved(t *testing.T) {
	p, err := Prepare("mux")
	if err != nil {
		t.Fatal(err)
	}
	st, hub, tc := &obs.Stats{}, obs.NewTraceHub("test", 1), obs.NewTraceContext()
	ctx := obs.WithTraceContext(obs.WithTraceHub(obs.WithStats(context.Background(), st), hub), tc)
	if _, err := p.Map(ctx, SOI, mapper.DefaultOptions(), false); err != nil {
		t.Fatal(err)
	}
	if st.Phases.Audit <= 0 {
		t.Errorf("audit phase = %v, want > 0", st.Phases.Audit)
	}
	var names []string
	for _, sp := range hub.Spans(tc.TraceID) {
		names = append(names, sp.Name)
	}
	if !slices.Contains(names, "audit "+p.Name) {
		t.Errorf("spans %q lack %q", names, "audit "+p.Name)
	}
}

func TestPipelineMapAndVerify(t *testing.T) {
	p, err := Prepare("z4ml")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{Domino, RS, SOI, RSDeep} {
		res, err := p.Map(context.Background(), a, mapper.DefaultOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Stats.Gates == 0 {
			t.Errorf("%s: empty mapping", a)
		}
	}
}

// TestHeadlineShape is the core reproduction check: over the paper's
// Table II suite, SOI_Domino_Map must cut discharge transistors by
// roughly half (paper: 53%), roughly double RS_Map's reduction
// (paper: 25.4%), while also reducing total transistors (paper: 6.29%).
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	opt := mapper.DefaultOptions()
	t1, err := RunTableI(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunTableII(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := t1.AvgDischReduction()
	soi := t2.AvgDischReduction()
	if soi < 35 || soi > 70 {
		t.Errorf("SOI discharge reduction %.1f%% outside the paper's band (53%%)", soi)
	}
	if rs < 12 || rs > 40 {
		t.Errorf("RS discharge reduction %.1f%% outside the paper's band (25.4%%)", rs)
	}
	if soi < 1.4*rs {
		t.Errorf("SOI (%.1f%%) should clearly beat RS (%.1f%%): paper has a 2x gap", soi, rs)
	}
	if tot := t2.AvgTotalReduction(); tot <= 0 {
		t.Errorf("SOI total reduction %.2f%% should be positive (paper: 6.29%%)", tot)
	}
	// Per-circuit sanity: neither algorithm may ever need more discharge
	// or total transistors than the baseline.
	for _, r := range append(t1.Rows, t2.Rows...) {
		if r.Cmp.TDisch > r.Base.TDisch {
			t.Errorf("%s: comparison uses more discharges than baseline", r.Circuit)
		}
		if r.Cmp.TTotal > r.Base.TTotal {
			t.Errorf("%s: comparison uses more total transistors than baseline", r.Circuit)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	tab, err := RunTableIII(mapper.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(bench.TableIII) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// k=2 must never increase the clock load, and must reduce it on
	// average (paper: 3.82%).
	for _, r := range tab.Rows {
		if r.K2.TClock > r.K1.TClock {
			t.Errorf("%s: k=2 Tclock %d > k=1 %d", r.Circuit, r.K2.TClock, r.K1.TClock)
		}
	}
	if avg := tab.AvgClockReduction(); avg <= 0 {
		t.Errorf("average clock reduction %.2f%% should be positive", avg)
	}
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table III") {
		t.Error("render missing title")
	}
}

func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	tab, err := RunTableIV(mapper.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if avg := tab.AvgDischReduction(); avg < 20 {
		t.Errorf("depth-objective discharge reduction %.1f%% too small (paper: 49.76%%)", avg)
	}
	// The paper's key observation: the combined cost (weighted levels +
	// discharges) improves even when individual circuits trade a level.
	w := mapper.DefaultOptions().DepthWeight
	for _, r := range tab.Rows {
		base := w*r.Base.Levels + r.Base.TDisch
		soi := w*r.SOI.Levels + r.SOI.TDisch
		if soi > base {
			t.Errorf("%s: SOI combined depth cost %d > baseline %d", r.Circuit, soi, base)
		}
	}
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table IV") {
		t.Error("render missing title")
	}
}

func TestCompareTableWrite(t *testing.T) {
	tab := &CompareTable{
		Title:     "Table test",
		Algorithm: SOI,
		Rows: []CompareRow{{
			Circuit:   "demo",
			Base:      mapper.Stats{TLogic: 100, TDisch: 20, TTotal: 120},
			Cmp:       mapper.Stats{TLogic: 105, TDisch: 8, TTotal: 113},
			PaperBase: paperTriple{100, 20, 120},
			PaperCmp:  paperTriple{105, 10, 115},
		}},
		PaperAvg: [2]float64{50, 5},
	}
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "60.00", "5.83", "50.00", "4.17"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary("x", 12.345, 25.41)
	if !strings.Contains(s, "12.35") || !strings.Contains(s, "25.41") {
		t.Errorf("Summary = %q", s)
	}
}

func TestPctZeroBase(t *testing.T) {
	if pct(0, 5) != 0 {
		t.Error("pct with zero base should be 0")
	}
}
