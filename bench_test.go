package soidomino

import (
	"context"
	"math/rand"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/obs"
	"soidomino/internal/pbe"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
	"soidomino/internal/unate"
)

// Each benchmark below regenerates one of the paper's tables or figures;
// run them with
//
//	go test -bench=. -benchmem
//
// The table benchmarks report the headline metric of the corresponding
// table as a custom unit next to wall-clock cost.

// BenchmarkTableI regenerates Table I (Domino_Map vs RS_Map, area
// objective) and reports the average discharge-transistor reduction
// (paper: 25.41%).
func BenchmarkTableI(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunTableI(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.AvgDischReduction(), "disch-red-%")
		b.ReportMetric(t.AvgTotalReduction(), "total-red-%")
	}
}

// BenchmarkTableII regenerates Table II (Domino_Map vs SOI_Domino_Map,
// area objective) and reports the average discharge reduction
// (paper: 53.00%) and total reduction (paper: 6.29%).
func BenchmarkTableII(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunTableII(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.AvgDischReduction(), "disch-red-%")
		b.ReportMetric(t.AvgTotalReduction(), "total-red-%")
	}
}

// BenchmarkTableIII regenerates Table III (clock weight k=1 vs k=2) and
// reports the average clock-transistor reduction (paper: 3.82%).
func BenchmarkTableIII(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunTableIII(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.AvgClockReduction(), "clock-red-%")
	}
}

// BenchmarkTableIV regenerates Table IV (depth objective) and reports the
// average discharge reduction (paper: 49.76%) and level reduction
// (paper: 6.36%).
func BenchmarkTableIV(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunTableIV(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.AvgDischReduction(), "disch-red-%")
		b.ReportMetric(t.AvgLevelReduction(), "level-red-%")
	}
}

// BenchmarkAblation regenerates the RS/RS-deep/SOI ablation (DESIGN.md §7)
// over the Table II suite.
func BenchmarkAblation(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunAblation(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		avg := t.Avg()
		b.ReportMetric(avg[0], "rs-%")
		b.ReportMetric(avg[1], "rsdeep-%")
		b.ReportMetric(avg[2], "soi-%")
	}
}

// BenchmarkExtensionExperiments regenerates the beyond-the-paper tables
// (sequence-aware pruning, clock power, diffusion area, delay) and reports
// their headline metrics.
func BenchmarkExtensionExperiments(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		seq, err := report.RunSequence(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		pow, err := report.RunPower(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		area, err := report.RunArea(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		dly, err := report.RunDelay(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(seq.Avg()[0], "seq-prune-%")
		b.ReportMetric(pow.AvgClockSavings()[0], "clock-energy-save-%")
		b.ReportMetric(area.AvgReductions()[1], "area-red-%")
		b.ReportMetric(dly.AvgSOIRatio(), "delay-ratio")
	}
}

// BenchmarkCompoundTable regenerates the solution-7 experiment.
func BenchmarkCompoundTable(b *testing.B) {
	opt := mapper.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.RunCompound(opt, false)
		if err != nil {
			b.Fatal(err)
		}
		conv, saved := t.Totals()
		b.ReportMetric(float64(conv), "gates-converted")
		b.ReportMetric(float64(saved), "transistors-saved")
	}
}

// BenchmarkFigure2Simulation replays the paper's fig. 2 PBE failure
// sequence on the switch-level simulator (unprotected bulk mapping) and
// reports corrupted evaluations per replay (must be 1).
func BenchmarkFigure2Simulation(b *testing.B) {
	p, err := report.Prepare("cm150")
	if err != nil {
		b.Fatal(err)
	}
	_ = p // cm150 prepared only to warm the registry path
	fig2, err := report.PrepareNetwork(figure2Network())
	if err != nil {
		b.Fatal(err)
	}
	res, err := fig2.Map(context.Background(), report.Domino, mapper.DefaultOptions(), false)
	if err != nil {
		b.Fatal(err)
	}
	circ, err := netlist.Build(res)
	if err != nil {
		b.Fatal(err)
	}
	seq := []map[string]bool{
		{"A": true, "B": false, "C": false, "D": false},
		{"A": true, "B": false, "C": false, "D": false},
		{"A": true, "B": false, "C": false, "D": false},
		{"A": false, "B": false, "C": false, "D": true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := soisim.DefaultConfig()
		cfg.DisableDischarge = true
		sim := soisim.New(circ, cfg)
		corrupted := 0
		for _, vec := range seq {
			_, events, err := sim.Cycle(vec)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range events {
				if e.Corrupted {
					corrupted++
				}
			}
		}
		if corrupted != 1 {
			b.Fatalf("expected exactly 1 corrupted evaluation, got %d", corrupted)
		}
	}
}

// BenchmarkMapDes measures the full pipeline on the suite's largest
// circuit (the DES-style round network) under the SOI mapper.
func BenchmarkMapDes(b *testing.B) {
	src := bench.MustBuild("des")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := unate.Decompose(src)
		if err != nil {
			b.Fatal(err)
		}
		u, err := d.Convert()
		if err != nil {
			b.Fatal(err)
		}
		res, err := mapper.SOIDominoMap(u.Network, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.TTotal), "Ttotal")
	}
}

// BenchmarkMapDesBaseline is the same pipeline under the bulk baseline,
// for mapper-overhead comparison.
func BenchmarkMapDesBaseline(b *testing.B) {
	src := bench.MustBuild("des")
	d, err := unate.Decompose(src)
	if err != nil {
		b.Fatal(err)
	}
	u, err := d.Convert()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.DominoMap(u.Network, mapper.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapDesPareto profiles the Pareto dynamic program: SOI Pareto
// on des, prepared (strash, decompose, unate) once, timing the DP and
// traceback only — no audit, no encode. It reports the combinations the
// DP charges per run (obs.Stats.TuplesGenerated), so a change that
// speeds the DP up by doing less work shows apart from one that does the
// same work faster. Profile it with
//
//	go test -bench=MapDesPareto -run='^$' -cpuprofile cpu.out .
func BenchmarkMapDesPareto(b *testing.B) {
	p, err := report.Prepare("des")
	if err != nil {
		b.Fatal(err)
	}
	opt := mapper.DefaultOptions()
	opt.Pareto = true
	var st obs.Stats
	if _, err := mapper.SOIDominoMapContext(obs.WithStats(context.Background(), &st), p.Unate, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.SOIDominoMap(p.Unate, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.TuplesGenerated), "tuples_generated/op")
}

// paretoLargeCircuits are the six circuits of perfbench's pareto-large
// workload.
var paretoLargeCircuits = []string{"c2670", "dalu", "c3540", "des", "c5315", "c7552"}

// BenchmarkMapParetoLarge profiles the Pareto dynamic program over the
// six circuits of perfbench's pareto-large workload (c2670, dalu, c3540,
// des, c5315, c7552): SOI Pareto, each prepared once, one op mapping all
// six, DP and traceback only. It reports the combinations the DP charges
// per op. Profile it with
//
//	go test -bench=MapParetoLarge -run='^$' -cpuprofile cpu.out .
func BenchmarkMapParetoLarge(b *testing.B) {
	opt := mapper.DefaultOptions()
	opt.Pareto = true
	var nets []*logic.Network
	var st obs.Stats
	for _, name := range paretoLargeCircuits {
		p, err := report.Prepare(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mapper.SOIDominoMapContext(obs.WithStats(context.Background(), &st), p.Unate, opt); err != nil {
			b.Fatal(err)
		}
		nets = append(nets, p.Unate)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, err := mapper.SOIDominoMap(n, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(st.TuplesGenerated), "tuples_generated/op")
}

// BenchmarkPrepareLarge profiles the front end alone over the same six
// circuits: one op takes each built network through
// report.PrepareNetwork (strash, decompose, unate). Warm, it allocates
// the networks it returns; profile it with
//
//	go test -bench=PrepareLarge -run='^$' -memprofile mem.out .
func BenchmarkPrepareLarge(b *testing.B) {
	var nets []*logic.Network
	for _, name := range paretoLargeCircuits {
		nets = append(nets, bench.MustBuild(name))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, err := report.PrepareNetwork(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPBEAnalyze measures the structural discharge-point analysis on
// random pulldown trees.
func BenchmarkPBEAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	trees := make([]benchTree, 64)
	for i := range trees {
		trees[i].t = randomTree(rng, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trees[i%len(trees)].t
		a := pbe.Analyze(tr, nil, nil)
		if len(a.Immediate) < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkSimulatorCycle measures one clock cycle of the switch-level
// simulator on the mapped c880 circuit.
func BenchmarkSimulatorCycle(b *testing.B) {
	p, err := report.Prepare("c880")
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.Map(context.Background(), report.SOI, mapper.DefaultOptions(), false)
	if err != nil {
		b.Fatal(err)
	}
	circ, err := netlist.Build(res)
	if err != nil {
		b.Fatal(err)
	}
	sim := soisim.New(circ, soisim.DefaultConfig())
	vec := soisim.RandomVectors(circ, rand.New(rand.NewSource(2)), 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Cycle(vec); err != nil {
			b.Fatal(err)
		}
	}
}
