package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/obs"
	"soidomino/internal/report"
)

// Engine runs differential fuzzing campaigns over the mapping pipeline.
type Engine struct {
	cfg      Config
	variants []Variant
	oracles  []Oracle
	cross    []CrossOracle

	mapperRuns atomic.Int64

	// Cumulative wall time per campaign stage, summed across workers
	// (so totals can exceed the campaign's elapsed time). oracleNanos
	// and crossNanos are indexed parallel to oracles and cross;
	// strashNanos is the pipeline's strash phase, read from the obs
	// collector each case prepares under.
	mapNanos    atomic.Int64
	strashNanos atomic.Int64
	oracleNanos []atomic.Int64
	crossNanos  []atomic.Int64
}

// New builds an engine, filling nil oracle/variant sets with the defaults.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, variants: cfg.Variants, oracles: cfg.Oracles, cross: cfg.Cross}
	if e.variants == nil {
		e.variants = DefaultVariants()
	}
	if e.oracles == nil {
		e.oracles = DefaultOracles()
	}
	if e.cross == nil {
		e.cross = DefaultCrossOracles()
	}
	if e.cfg.Workers <= 0 {
		e.cfg.Workers = 1
	}
	e.oracleNanos = make([]atomic.Int64, len(e.oracles))
	e.crossNanos = make([]atomic.Int64, len(e.cross))
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Run executes the campaign: generate, sweep, check, and (when configured)
// shrink and persist failing cases. It returns early only when ctx is
// canceled; per-case deadlines and panics are recorded as violations, not
// errors.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	sum := &Summary{Cases: e.cfg.Cases}
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				vs := e.runCase(ctx, idx)
				if len(vs) > 0 {
					mu.Lock()
					sum.Violations = append(sum.Violations, vs...)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for i := 0; i < e.cfg.Cases; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
		if e.cfg.Logf != nil && i > 0 && i%500 == 0 {
			e.cfg.Logf("fuzz: %d/%d cases dispatched", i, e.cfg.Cases)
		}
	}
	close(jobs)
	wg.Wait()
	sum.MapperRuns = e.mapperRuns.Load()
	sum.MapTime = time.Duration(e.mapNanos.Load())
	sum.StrashTime = time.Duration(e.strashNanos.Load())
	sum.OracleTime = make(map[string]time.Duration, len(e.oracles)+len(e.cross))
	for i, o := range e.oracles {
		sum.OracleTime[o.Name] = time.Duration(e.oracleNanos[i].Load())
	}
	for i, o := range e.cross {
		sum.OracleTime[o.Name] = time.Duration(e.crossNanos[i].Load())
	}
	sort.Slice(sum.Violations, func(i, j int) bool {
		a, b := sum.Violations[i], sum.Violations[j]
		if a.Case != b.Case {
			return a.Case < b.Case
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return a.Oracle < b.Oracle
	})
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	if e.cfg.CorpusDir != "" && len(sum.Violations) > 0 {
		names, err := e.persistFailures(ctx, sum.Violations)
		sum.Corpus = names
		if err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// runCase generates case idx's network and checks it, converting panics
// into violations so one bad case cannot kill the campaign.
func (e *Engine) runCase(ctx context.Context, idx int) []Violation {
	return e.checkNetwork(ctx, idx, e.cfg.CaseNetwork(idx))
}

// CheckNetwork sweeps an externally supplied network through the variant
// grid and oracle set (used by corpus replay and the shrinker predicate).
func (e *Engine) CheckNetwork(ctx context.Context, net *logic.Network) []Violation {
	return e.checkNetwork(ctx, -1, net)
}

func (e *Engine) checkNetwork(ctx context.Context, idx int, net *logic.Network) (out []Violation) {
	seed := caseSeed(e.cfg.Seed, idx)
	fail := func(variant, oracle, format string, args ...any) {
		out = append(out, Violation{
			Case: idx, Seed: seed, Variant: variant, Oracle: oracle,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	defer func() {
		if r := recover(); r != nil {
			fail("", "panic", "%v\n%s", r, debug.Stack())
		}
	}()
	cctx := ctx
	cancel := func() {}
	if e.cfg.CaseTimeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, e.cfg.CaseTimeout)
	}
	defer cancel()

	c := &Case{Index: idx, Seed: seed, Cfg: &e.cfg, Net: net, ctx: cctx}
	// Prepare under a private stats collector so the strash phase's cost
	// is attributable in the campaign breakdown; the context also carries
	// any armed faultpoint registry into the front-end (the strash corpus
	// generator relies on this).
	pst := &obs.Stats{}
	pipe, err := report.PrepareNetworkContext(obs.WithStats(cctx, pst), net)
	e.strashNanos.Add(int64(pst.Phases.Strash))
	if err != nil {
		fail("", "pipeline", "%v", err)
		return out
	}
	c.Pipe = pipe
	for i, v := range e.variants {
		mapStart := time.Now()
		res, err := v.Algo.Run(cctx, pipe.Unate, v.Opt)
		e.mapNanos.Add(int64(time.Since(mapStart)))
		e.mapperRuns.Add(1)
		vr := &VariantResult{Variant: v, Index: i, Res: res, Err: err}
		c.Variants = append(c.Variants, vr)
		if err != nil {
			switch {
			case ctx.Err() != nil:
				return out // campaign canceled: stop quietly
			case cctx.Err() != nil:
				fail(v.Name, "deadline", "case exceeded %v during mapping", e.cfg.CaseTimeout)
				return out
			default:
				fail(v.Name, "map-error", "%v", err)
			}
			continue
		}
		for oi, o := range e.oracles {
			oStart := time.Now()
			err := o.Check(c, vr)
			e.oracleNanos[oi].Add(int64(time.Since(oStart)))
			if err != nil {
				fail(v.Name, o.Name, "%v", err)
			}
			if cctx.Err() != nil {
				if ctx.Err() == nil {
					fail(v.Name, "deadline", "case exceeded %v during oracles", e.cfg.CaseTimeout)
				}
				return out
			}
		}
	}
	for oi, o := range e.cross {
		oStart := time.Now()
		vs := o.Check(c)
		e.crossNanos[oi].Add(int64(time.Since(oStart)))
		for _, v := range vs {
			v.Case, v.Seed = idx, seed
			out = append(out, v)
		}
	}
	return out
}

// Case is one generated network plus everything the sweep produced for it.
type Case struct {
	Index int
	Seed  int64
	Cfg   *Config
	Net   *logic.Network
	Pipe  *report.Pipeline
	// Variants holds one entry per grid point, in grid order.
	Variants []*VariantResult

	// ctx is the sweep's (deadline-bounded) context; nil when the case
	// was assembled directly, e.g. by the chaos harness.
	ctx context.Context
	// Lazily built strash-off pipeline for the metamorphic-strash
	// oracle; only one oracle needs it, so most sweeps never pay for it.
	rawPipe  *report.Pipeline
	rawErr   error
	rawBuilt bool
}

// Context returns the case's sweep context (Background for directly
// assembled cases).
func (c *Case) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Raw returns the case network's strash-off pipeline, built on first
// use. The metamorphic-strash oracle maps against it to compare the
// canonicalized front-end's cost with the submitted network's.
func (c *Case) Raw() (*report.Pipeline, error) {
	if !c.rawBuilt {
		c.rawBuilt = true
		c.rawPipe, c.rawErr = report.PrepareNetworkMode(c.Context(), c.Net, true)
	}
	return c.rawPipe, c.rawErr
}

// Counterpart finds the variant result that differs from v only in the
// algorithm, or nil.
func (c *Case) Counterpart(v *VariantResult, algo report.Algorithm) *VariantResult {
	for _, o := range c.Variants {
		if o.Algo == algo &&
			o.Opt.Objective == v.Opt.Objective &&
			o.Opt.ClockWeight == v.Opt.ClockWeight &&
			o.Opt.AlwaysFooted == v.Opt.AlwaysFooted &&
			o.Opt.SequenceAware == v.Opt.SequenceAware {
			return o
		}
	}
	return nil
}

// VariantResult is one grid point's mapping outcome.
type VariantResult struct {
	Variant
	Index int
	Res   *mapper.Result
	Err   error

	nl    *netlist.Circuit
	nlErr error
	built bool
}

// Netlist lazily builds (once) the transistor-level realization.
func (v *VariantResult) Netlist() (*netlist.Circuit, error) {
	if !v.built {
		v.built = true
		v.nl, v.nlErr = netlist.Build(v.Res)
	}
	return v.nl, v.nlErr
}

// newRand builds a deterministic PRNG for one stream.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
