// Package fuzz is the differential fuzzing and property-checking engine
// for the mapping pipeline. It hammers all three mappers (Domino_Map,
// RS_Map, SOI_Domino_Map) with seeded adversarial random networks
// (bench.Random), sweeps each network through a grid of mapping option
// variants under a worker pool with per-case deadlines and panic capture,
// and cross-checks a pluggable oracle set:
//
//   - audit: the mapper's own structural audit
//   - equivalence: functional equivalence against the source network
//   - discharge-prediction: the DP's OwnDisch forecast vs the structural
//     PBE analysis of the traced pulldown tree
//   - netlist: transistor-level realization, device audit and stats
//     cross-check
//   - soisim: a short switch-level simulation — no corrupted PBE events
//     on protected netlists and outputs tracking the mapped function
//   - cross-variant metamorphic relations under the area objective:
//     T_total(SOI) <= T_total(Domino) + TotalEps and
//     T_disch(SOI) <= T_disch(RS) + DischEps
//   - key faithfulness: a shuffled, internally renamed twin of the case
//     shares its strash Key and maps to the same gates
//
// Violations are delta-debugged to a minimal failing circuit (Shrink) and
// written as BLIF plus a JSON manifest into a corpus directory; the
// checked-in corpus replays as an ordinary go test so every shrunk repro
// is a permanent regression test.
package fuzz

import (
	"fmt"
	"runtime"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// Variant is one point of the mapping-option grid a case is swept over.
type Variant struct {
	Name string
	Algo report.Algorithm
	Opt  mapper.Options
}

// DefaultVariants returns the full sweep grid:
// {Domino, RS, SOI} x {area, depth} x {footed, footless} x {k in 1,2} x
// {SequenceAware on/off}. ClockWeight only matters under the area
// objective, so k=2 depth duplicates are pruned; 36 variants total.
func DefaultVariants() []Variant {
	var vs []Variant
	for _, algo := range []report.Algorithm{report.Domino, report.RS, report.SOI} {
		for _, obj := range []mapper.Objective{mapper.Area, mapper.Depth} {
			ks := []int{1, 2}
			if obj == mapper.Depth {
				ks = []int{1}
			}
			for _, k := range ks {
				for _, footed := range []bool{false, true} {
					for _, seq := range []bool{false, true} {
						opt := mapper.DefaultOptions()
						opt.Objective = obj
						opt.ClockWeight = k
						opt.AlwaysFooted = footed
						opt.SequenceAware = seq
						opt.BaselineStackOrder = mapper.OrderHashed
						vs = append(vs, Variant{
							Name: variantName(algo, opt),
							Algo: algo,
							Opt:  opt,
						})
					}
				}
			}
		}
	}
	return vs
}

func variantName(algo report.Algorithm, opt mapper.Options) string {
	foot := "footless"
	if opt.AlwaysFooted {
		foot = "footed"
	}
	seq := "plain"
	if opt.SequenceAware {
		seq = "seq"
	}
	return fmt.Sprintf("%s/%s/k%d/%s/%s", algo, opt.Objective, opt.ClockWeight, foot, seq)
}

// Config tunes a fuzzing run. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Cases is how many random networks to generate and sweep.
	Cases int
	// Seed derives every per-case generator seed; same seed, same run.
	Seed int64
	// Workers bounds concurrent cases; <= 0 means GOMAXPROCS.
	Workers int

	// Generated-network size jitter (inclusive bounds).
	MinInputs, MaxInputs int
	MinGates, MaxGates   int
	MaxOutputs           int

	// CaseTimeout bounds one case's full variant sweep; exceeding it is
	// itself reported as a violation (a hang is a bug).
	CaseTimeout time.Duration
	// SimCycles is the switch-level simulation length per variant.
	SimCycles int

	// TotalEps is the slack in T_total(SOI) <= T_total(Domino) + eps. The
	// DPs are per-cone heuristics joined across multi-fanout boundaries,
	// so small inversions are legitimate; the recorded default keeps the
	// relation tight enough to catch a systematically broken SOI cost
	// function (see EXPERIMENTS.md).
	TotalEps int
	// DischEps is the corresponding slack in T_disch(SOI) <= T_disch(RS).
	DischEps int
	// StrashEps is the additive part of the strash metamorphic relation:
	// mapping the canonicalized network must satisfy
	// cost(strash-on) <= 2*cost(strash-off) + StrashEps on both T_total
	// and levels (see strashSlack for why the multiplicative bound is
	// necessary and EXPERIMENTS.md for the calibration evidence).
	StrashEps int

	// Variants, Oracles and Cross override the sweep grid and oracle sets;
	// nil selects the defaults. An empty non-nil slice disables the set.
	Variants []Variant
	Oracles  []Oracle
	Cross    []CrossOracle

	// CorpusDir, when non-empty, receives one shrunk BLIF + JSON manifest
	// per violating case (at most MaxCorpusEntries).
	CorpusDir string
	// CorpusNote is recorded verbatim in every written manifest
	// (provenance: which campaign or injected fault produced the entry).
	CorpusNote string
	// Shrink enables delta-debugging before corpus writes.
	Shrink bool
	// MaxShrinkSteps bounds the shrinker's candidate evaluations.
	MaxShrinkSteps int
	// MaxCorpusEntries bounds how many failing cases are written out.
	MaxCorpusEntries int

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultConfig returns the smoke-test configuration: small networks so
// exhaustive equivalence stays cheap, the full variant grid and oracle
// set.
func DefaultConfig() Config {
	return Config{
		Cases:            200,
		Seed:             1,
		Workers:          runtime.GOMAXPROCS(0),
		MinInputs:        4,
		MaxInputs:        9,
		MinGates:         3,
		MaxGates:         35,
		MaxOutputs:       4,
		CaseTimeout:      30 * time.Second,
		SimCycles:        5,
		TotalEps:         2,
		DischEps:         2,
		StrashEps:        2,
		Shrink:           true,
		MaxShrinkSteps:   600,
		MaxCorpusEntries: 5,
	}
}

// Violation is one oracle failure, attributed to the case that produced it.
type Violation struct {
	Case    int    `json:"case"`
	Seed    int64  `json:"seed"`
	Variant string `json:"variant,omitempty"` // empty for cross-variant and pipeline failures
	Oracle  string `json:"oracle"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string {
	where := v.Oracle
	if v.Variant != "" {
		where = v.Variant + " " + v.Oracle
	}
	return fmt.Sprintf("case %d (seed %#x) %s: %s", v.Case, v.Seed, where, v.Detail)
}

// Summary is the outcome of a Run.
type Summary struct {
	Cases      int
	MapperRuns int64
	Violations []Violation
	// Corpus lists the corpus entry names written for this run.
	Corpus []string
	// MapTime, StrashTime and OracleTime break the campaign down by
	// stage: wall time summed across workers (so the totals can exceed
	// the campaign's elapsed time), keyed by oracle name for per-variant
	// and cross oracles alike. StrashTime is the pipeline's strash phase
	// only, extracted from the obs collector each case prepares under.
	MapTime    time.Duration
	StrashTime time.Duration
	OracleTime map[string]time.Duration
}

// caseSeed mixes the run seed and case index into an independent stream
// seed (splitmix64 finalizer).
func caseSeed(seed int64, idx int) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// caseParams derives the generator profile for one case.
func (c Config) caseParams(idx int) bench.RandParams {
	rng := newRand(caseSeed(c.Seed, idx))
	span := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	return bench.RandParams{
		Name:          fmt.Sprintf("fuzz%06d", idx),
		Seed:          rng.Int63(),
		Inputs:        span(c.MinInputs, c.MaxInputs),
		Outputs:       span(1, c.MaxOutputs),
		Gates:         span(c.MinGates, c.MaxGates),
		Locality:      rng.Float64(),
		FanoutSkew:    rng.Float64() * 0.8,
		Reconvergence: rng.Float64(),
		WideFrac:      rng.Float64() * 0.5,
		ConstFrac:     rng.Float64() * 0.15,
		PIOutputs:     rng.Intn(3) > 0,
	}
}

// CaseNetwork regenerates the random network of one case index, e.g. to
// shrink a reported violation.
func (c Config) CaseNetwork(idx int) *logic.Network {
	return bench.Random(c.caseParams(idx))
}
