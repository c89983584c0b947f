package soidomino

import (
	"context"
	"math/rand"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/delay"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
	"soidomino/internal/verify"
)

// TestPipelineEndToEnd drives the complete stack — generator, decompose,
// unate, all four mappers, audit, functional verification, transistor
// netlist, cross-check, delay analysis and a short switch-level simulation
// — over a representative slice of the benchmark suite, including the
// extra (non-paper) circuits.
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	circuits := []string{
		"cm150", "z4ml", "9symml", "f51m", "count", "cordic", "frg1",
		"x-dec4", "x-cmp8", "x-par16", "x-gray8", "x-csa16",
	}
	algos := []struct {
		name string
		fn   func(p *report.Pipeline, opt mapper.Options) (*mapper.Result, error)
	}{
		{"domino", func(p *report.Pipeline, opt mapper.Options) (*mapper.Result, error) {
			return p.Map(context.Background(), report.Domino, opt, false)
		}},
		{"rs", func(p *report.Pipeline, opt mapper.Options) (*mapper.Result, error) {
			return p.Map(context.Background(), report.RS, opt, false)
		}},
		{"soi", func(p *report.Pipeline, opt mapper.Options) (*mapper.Result, error) {
			return p.Map(context.Background(), report.SOI, opt, false)
		}},
		{"soi-pareto", func(p *report.Pipeline, opt mapper.Options) (*mapper.Result, error) {
			opt.Pareto = true
			return mapper.SOIDominoMap(p.Unate, opt)
		}},
	}

	for _, name := range circuits {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := report.Prepare(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := mapper.DefaultOptions()
			opt.BaselineStackOrder = mapper.OrderHashed
			for _, algo := range algos {
				res, err := algo.fn(p, opt)
				if err != nil {
					t.Fatalf("%s: %v", algo.name, err)
				}
				if err := res.Audit(); err != nil {
					t.Fatalf("%s audit: %v", algo.name, err)
				}
				if err := verify.MustBeEquivalent(p.Orig, res, verify.DefaultOptions()); err != nil {
					t.Fatalf("%s: %v", algo.name, err)
				}
				circ, err := netlist.Build(res)
				if err != nil {
					t.Fatalf("%s netlist: %v", algo.name, err)
				}
				if err := circ.Audit(); err != nil {
					t.Fatalf("%s netlist audit: %v", algo.name, err)
				}
				if err := circ.CrossCheck(res); err != nil {
					t.Fatalf("%s cross-check: %v", algo.name, err)
				}
				if _, err := delay.Analyze(res, delay.DefaultParams()); err != nil {
					t.Fatalf("%s delay: %v", algo.name, err)
				}
				// Short simulation: outputs must track the mapped function
				// with zero corruption on protected circuits.
				sim := soisim.New(circ, soisim.DefaultConfig())
				for cyc, vec := range soisim.RandomVectors(circ, rand.New(rand.NewSource(3)), 12) {
					got, events, err := sim.Cycle(vec)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range events {
						if e.Corrupted {
							t.Fatalf("%s: corrupted at cycle %d: %v", algo.name, cyc, e)
						}
					}
					want, err := res.Eval(vec)
					if err != nil {
						t.Fatal(err)
					}
					for out, v := range want {
						if got[out] != v {
							t.Fatalf("%s: cycle %d output %q mismatch", algo.name, cyc, out)
						}
					}
				}
			}
		})
	}
}

// TestCompoundPipelineEndToEnd applies the compound transformation after
// the baseline over the suite slice and re-runs the full validation.
func TestCompoundPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, name := range []string{"t481", "c880", "des", "x-cmp8"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := report.Prepare(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := mapper.DefaultOptions()
			opt.BaselineStackOrder = mapper.OrderHashed
			res, err := p.Map(context.Background(), report.Domino, opt, false)
			if err != nil {
				t.Fatal(err)
			}
			before := res.Stats
			mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
			if res.Stats.TTotal > before.TTotal {
				t.Errorf("compound increased Ttotal: %d -> %d", before.TTotal, res.Stats.TTotal)
			}
			if err := res.Audit(); err != nil {
				t.Fatal(err)
			}
			if err := verify.MustBeEquivalent(p.Orig, res, verify.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			circ, err := netlist.Build(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := circ.Audit(); err != nil {
				t.Fatal(err)
			}
			if err := circ.CrossCheck(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchSuiteMapsEverywhere maps every registered benchmark (including
// the big synthetics) with the SOI mapper and audits the result: a
// coverage sweep that catches generator/mapper interactions the curated
// tables miss.
func TestBenchSuiteMapsEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, name := range bench.Names() {
		p, err := report.Prepare(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := p.Map(context.Background(), report.SOI, mapper.DefaultOptions(), false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Audit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.TTotal == 0 {
			t.Errorf("%s: empty mapping", name)
		}
	}
}
