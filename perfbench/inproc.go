package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/verify"
)

// mapFunc is one mapper entry point.
type mapFunc func(context.Context, *logic.Network, mapper.Options) (*mapper.Result, error)

// inprocSpec describes an in-process workload: every op takes one
// circuit through report.PrepareNetwork, each mapper, Audit and
// service.NewMapResult + EncodeJSON, as cmd/tables runs them.
type inprocSpec struct {
	// circuits is one pass of the op sequence; a name listed twice is
	// drawn twice as often (the proportions that keep p50 inside one
	// circuit's latency class).
	circuits []string
	// tail is the dearest circuit, left out of the passes: each window
	// holds exactly 2×tailBeyond of its ops at seeded positions, so the
	// tail sample, tailBeyond from the top, is its class's median.
	tail  string
	algos []string
	opt   mapper.Options
	// passesPerSecond sizes a window: round(seconds × passesPerSecond)
	// seeded permutations of circuits.
	passesPerSecond float64
}

var mappers = map[string]mapFunc{
	"domino": mapper.DominoMapContext,
	"rs":     mapper.RSMapContext,
	"soi":    mapper.SOIDominoMapContext,
}

func setupPaperTables(seed int64, seconds, windows int) (env, error) {
	opt := mapper.DefaultOptions()
	// cmd/tables runs the PBE-blind baselines with hashed stack order.
	opt.BaselineStackOrder = mapper.OrderHashed
	// The sequential engine: with the default one, an op's time depends on
	// a second vCPU, which a shared host's neighbours take in bursts that
	// the one-thread reference does not see (the runs spread 10–12%).
	// pareto-large measures the parallel engine.
	opt.Workers = 1
	// c432 sits at the median of the circuits' latencies; listing it twice
	// centres p50 inside its class.
	circuits := []string{"c432"}
	for _, c := range bench.Names() {
		if c != "c7552" {
			circuits = append(circuits, c)
		}
	}
	return setupInproc(inprocSpec{
		circuits:        circuits,
		tail:            "c7552",
		algos:           []string{"domino", "rs", "soi"},
		opt:             opt,
		passesPerSecond: 1.5,
	}, seed, seconds, windows)
}

func setupParetoLarge(seed int64, seconds, windows int) (env, error) {
	opt := mapper.DefaultOptions()
	opt.Pareto = true
	return setupInproc(inprocSpec{
		// Ordered by op latency; dalu and c3540 are doubled so as many ops
		// are cheaper than c3540 as dearer, which centres the median in
		// c3540's own latency class.
		circuits:        []string{"c2670", "dalu", "dalu", "c3540", "c3540", "des", "c5315"},
		tail:            "c7552",
		algos:           []string{"soi"},
		opt:             opt,
		passesPerSecond: 2.9,
	}, seed, seconds, windows)
}

type refResult struct {
	res    *mapper.Result
	digest [sha256.Size]byte
}

type inprocEnv struct {
	spec inprocSpec
	nets map[string]*logic.Network
	seq  []string
	// ref holds each circuit's results from the set-up pass, one per
	// algorithm; every timed op must reproduce their encoding exactly.
	ref     map[string][]refResult
	digests [][][][sha256.Size]byte // [window][op][algorithm]
	// acc sums the traced window's per-layer measurements.
	acc       map[string]float64
	highWater int64
}

func setupInproc(spec inprocSpec, seed int64, seconds, windows int) (env, error) {
	e := &inprocEnv{
		spec: spec,
		nets: map[string]*logic.Network{},
		ref:  map[string][]refResult{},
		acc:  map[string]float64{},
	}
	all := append([]string{spec.tail}, spec.circuits...)
	for _, c := range all {
		if e.nets[c] == nil {
			e.nets[c] = bench.MustBuild(c)
		}
	}
	tail := make([]string, 2*tailBeyond)
	for k := range tail {
		tail[k] = spec.tail
	}
	e.seq = withTail(opSequence(spec.circuits, seed, passes(seconds, spec.passesPerSecond)), tail, seed)
	// The set-up pass maps every circuit once: it fills the reference
	// results and warms the heap before anything is timed.
	for _, c := range all {
		if e.ref[c] != nil {
			continue
		}
		refs, err := e.mapCircuit(context.Background(), "", c, nil)
		if err != nil {
			return nil, err
		}
		e.ref[c] = refs
	}
	e.digests = make([][][][sha256.Size]byte, windows)
	for w := range e.digests {
		e.digests[w] = make([][][sha256.Size]byte, len(e.seq))
		for i := range e.digests[w] {
			e.digests[w][i] = make([][sha256.Size]byte, len(spec.algos))
		}
	}
	return e, nil
}

func passes(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond)))
}

// opSequence concatenates seeded permutations of one pass: the same seed
// always yields the same sequence, and every pass holds each entry once.
func opSequence(pass []string, seed int64, passes int) []string {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]string, 0, passes*len(pass))
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(pass)) {
			seq = append(seq, pass[i])
		}
	}
	return seq
}

// mapCircuit is one op: the pipeline exactly as cmd/tables and soimapd
// run it. With a recorder it also collects the mapper's obs statistics
// and records a span per layer: the front-end and DP/traceback spans are
// laid out from the obs phase times, the others timed around the calls.
func (e *inprocEnv) mapCircuit(ctx context.Context, trace, c string, rec *recorder) ([]refResult, error) {
	var pst *obs.Stats
	if rec != nil {
		pst = &obs.Stats{}
		ctx = obs.WithStats(ctx, pst)
	}
	t0 := time.Now()
	p, err := report.PrepareNetworkContext(ctx, e.nets[c])
	if err != nil {
		return nil, err
	}
	if rec != nil {
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"strash.run", pst.Phases.Strash}, {"decompose.run", pst.Phases.Decompose}, {"unate.run", pst.Phases.Unate}} {
			rec.add(trace, ph.name, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
		e.acc["strash.nodes_removed"] += float64(e.nets[c].Len() - p.Strash.Network.Len())
		e.acc["unate.duplicated"] += float64(p.Duplicated)
	}
	out := make([]refResult, len(e.spec.algos))
	for a, algo := range e.spec.algos {
		st := &obs.Stats{}
		mctx := ctx
		if rec != nil {
			mctx = obs.WithStats(ctx, st)
		}
		a0 := allocBytes()
		t0 := time.Now()
		res, err := mappers[algo](mctx, p.Unate, e.spec.opt)
		t1, a1 := time.Now(), allocBytes()
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", algo, c, err)
		}
		if err := res.Audit(); err != nil {
			return nil, fmt.Errorf("%s on %s: audit: %w", algo, c, err)
		}
		t2 := time.Now()
		b, err := service.EncodeJSON(service.NewMapResult(c, p, res))
		t3 := time.Now()
		if err != nil {
			return nil, err
		}
		out[a] = refResult{res, sha256.Sum256(b)}
		if rec == nil {
			continue
		}
		rec.add(trace, "mapper.map", t0, t1)
		dpEnd := t0.Add(st.Phases.DP)
		rec.add(trace, "mapper.dp", t0, dpEnd)
		rec.add(trace, "mapper.traceback", dpEnd, dpEnd.Add(st.Phases.Traceback))
		rec.add(trace, "mapper.audit", t1, t2)
		rec.add(trace, "service.encode", t2, t3)
		e.acc["mapper.alloc_mb"] += float64(a1-a0) / 1e6
		e.acc["mapper.map_ms"] += msOf(t1.Sub(t0))
		e.acc["mapper.dp_ms"] += msOf(st.Phases.DP)
		e.acc["mapper.traceback_ms"] += msOf(st.Phases.Traceback)
		e.acc["mapper.tuples_generated"] += float64(st.TuplesGenerated)
		e.acc["mapper.tuples_kept"] += float64(st.TuplesKept)
		e.highWater = max(e.highWater, st.FrontierHighWater)
		e.acc["mapper.audit_ms"] += msOf(t2.Sub(t1))
		e.acc["service.encode_ms"] += msOf(t3.Sub(t2))
		e.acc["service.encode_kb"] += float64(len(b)) / 1024
	}
	return out, nil
}

func (e *inprocEnv) ops() int             { return len(e.seq) }
func (e *inprocEnv) opClass(i int) string { return e.seq[i] }
func (e *inprocEnv) close()               {}

func (e *inprocEnv) op(ctx context.Context, w, i int, rec *recorder) error {
	out, err := e.mapCircuit(ctx, traceID(w, i), e.seq[i], rec)
	if err != nil {
		return err
	}
	for a, r := range out {
		e.digests[w][i][a] = r.digest
	}
	return nil
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (e *inprocEnv) check(windows int) (quality, error) {
	var q quality
	type pair struct {
		c string
		a int
	}
	var distinct []pair
	for c, refs := range e.ref {
		for a := range refs {
			distinct = append(distinct, pair{c, a})
			q.TTotal += refs[a].res.Stats.TTotal
			q.TDisch += refs[a].res.Stats.TDisch
		}
	}
	err := forEach(len(distinct), func(k int) error {
		p := distinct[k]
		res := e.ref[p.c][p.a].res
		err := res.Audit()
		if err == nil {
			err = verify.MustBeEquivalent(e.nets[p.c], res, verify.DefaultOptions())
		}
		if err != nil {
			return fmt.Errorf("%s on %s: %w", e.spec.algos[p.a], p.c, err)
		}
		return nil
	})
	if err != nil {
		return q, err
	}
	for w := 0; w < windows; w++ {
		for i, c := range e.seq {
			for a, d := range e.digests[w][i] {
				if d != e.ref[c][a].digest {
					return q, fmt.Errorf("window %d op %d: %s on %s encoded differently from its first run", w, i, e.spec.algos[a], c)
				}
			}
		}
	}
	return q, nil
}

func (e *inprocEnv) layers(w int, rows []layerRow, m map[string]float64) error {
	ops := float64(len(e.seq))
	for k, v := range e.acc {
		m[k] = v / ops
	}
	for _, name := range []string{"strash.run", "decompose.run", "unate.run"} {
		m[name+"_ms"] = msOf(row(rows, name).Total) / ops
	}
	m["mapper.frontier_high_water"] = float64(e.highWater)
	return nil
}
