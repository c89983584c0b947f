// Package report runs the paper's experiments end to end and renders the
// four evaluation tables. Each circuit goes through the full pipeline —
// benchmark generator, 2-input decomposition, unate conversion, one or
// more mappers, functional verification — and the resulting statistics are
// laid out in the papers' row format next to the paper's own numbers.
package report

import (
	"context"
	"fmt"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/strash"
	"soidomino/internal/unate"
	"soidomino/internal/verify"
)

// Pipeline is a prepared circuit: generated, strashed (unless opted
// out), decomposed and unate.
type Pipeline struct {
	Name string
	// Orig is the submitted network, untouched — equivalence checks and
	// the encoded Source summary always refer to it.
	Orig *logic.Network
	// Strash is the front-end canonicalization result, nil when the run
	// opted out (mapper.Options.StrashOff). Strash.Network is what
	// decompose consumed.
	Strash *strash.Result
	Unate  *logic.Network
	// Duplicated reports the unate conversion's logic duplication.
	Duplicated int
	// OrigStats and UnateStats summarize Orig and Unate, computed once at
	// prepare: nothing mutates either network afterwards, and every
	// encoded result of the pipeline reports them.
	OrigStats, UnateStats logic.Stats
}

// Prepare builds the named benchmark and runs it to unate form.
func Prepare(name string) (*Pipeline, error) {
	b, ok := bench.Get(name)
	if !ok {
		return nil, fmt.Errorf("report: unknown benchmark %q", name)
	}
	return PrepareNetwork(b.Build())
}

// PrepareNetwork runs an arbitrary circuit to unate form.
func PrepareNetwork(n *logic.Network) (*Pipeline, error) {
	return PrepareNetworkContext(context.Background(), n)
}

// PrepareNetworkContext is PrepareNetwork with observability: when ctx
// carries an obs.Stats collector (obs.WithStats) the strash, decompose
// and unate phases charge their wall-clock cost to it, and under a
// sampled trace its obs.TraceHub records them as spans (obs.RunPhase).
// A plain context makes it identical to PrepareNetwork. Strash is on;
// use PrepareNetworkMode to opt out.
func PrepareNetworkContext(ctx context.Context, n *logic.Network) (*Pipeline, error) {
	return PrepareNetworkMode(ctx, n, false)
}

// PrepareNetworkMode is PrepareNetworkContext with the strash front-end
// made optional: strashOff maps the submitted network exactly as
// submitted (no hash-consing, no DCE), the pre-strash behaviour the
// fuzzer's metamorphic oracle and `soimap -strash-off` compare against.
func PrepareNetworkMode(ctx context.Context, n *logic.Network, strashOff bool) (*Pipeline, error) {
	var sr *strash.Result
	if !strashOff {
		obs.RunPhase(ctx, obs.PhaseStrash, "pipeline", "strash "+n.Name, func() error {
			sr = strash.RunContext(ctx, n)
			return nil
		})
	}
	return PrepareStrashed(ctx, n, sr)
}

// PrepareStrashed runs n to unate form from a strash result already
// computed for it, so a caller that strashed n for its cache key (the
// mapping service) does not strash twice. sr == nil maps n exactly as
// submitted, like PrepareNetworkMode with strashOff.
func PrepareStrashed(ctx context.Context, n *logic.Network, sr *strash.Result) (*Pipeline, error) {
	src := n
	if sr != nil {
		obs.StatsFrom(ctx).AddStrash(sr.Counters.Merged, sr.Counters.Folded, sr.Counters.Dead)
		src = sr.Network
	}
	var d *unate.Decomposed
	err := obs.RunPhase(ctx, obs.PhaseDecompose, "pipeline", "decompose "+n.Name, func() error {
		var derr error
		d, derr = unate.Decompose(src)
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("report: decompose %s: %w", n.Name, err)
	}
	var u *unate.Result
	err = obs.RunPhase(ctx, obs.PhaseUnate, "pipeline", "unate "+n.Name, func() error {
		var uerr error
		u, uerr = d.Convert()
		return uerr
	})
	if err != nil {
		return nil, fmt.Errorf("report: unate %s: %w", n.Name, err)
	}
	return &Pipeline{
		Name:       n.Name,
		Orig:       n,
		Strash:     sr,
		Unate:      u.Network,
		Duplicated: u.DuplicatedNodes,
		OrigStats:  n.Stats(),
		UnateStats: u.Network.Stats(),
	}, nil
}

// Algorithm names a mapper. It is the one place an algorithm is turned
// into its mapper function: the harness, the CLI, the service and the
// fuzzer all dispatch through it.
type Algorithm uint8

const (
	Domino Algorithm = iota
	RS
	SOI
	RSDeep
)

// algorithms is the dispatch table, indexed by Algorithm.
var algorithms = [...]struct {
	key, name string
	run       func(context.Context, *logic.Network, mapper.Options) (*mapper.Result, error)
}{
	Domino: {"domino", "Domino_Map", mapper.DominoMapContext},
	RS:     {"rs", "RS_Map", mapper.RSMapContext},
	SOI:    {"soi", "SOI_Domino_Map", mapper.SOIDominoMapContext},
	RSDeep: {"rsdeep", "RS_Map_deep", mapper.RSMapDeepContext},
}

// ParseAlgorithm resolves a wire key (domino, rs, rsdeep, soi).
func ParseAlgorithm(key string) (Algorithm, error) {
	for a, row := range algorithms {
		if row.key == key {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want domino, rs, rsdeep or soi)", key)
}

// Key is the wire key: request field, cache key, metric label, logs.
func (a Algorithm) Key() string { return algorithms[a].key }

// String is the paper name, as mapper.Result.Algorithm reports it.
func (a Algorithm) String() string { return algorithms[a].name }

// Canonical returns opt as this algorithm runs it, with every field it
// does not read at its default (mapper.Canonical).
func (a Algorithm) Canonical(opt mapper.Options) mapper.Options {
	return mapper.Canonical(algorithms[a].name, opt)
}

// Run maps the unate network n under ctx, without auditing the result.
func (a Algorithm) Run(ctx context.Context, n *logic.Network, opt mapper.Options) (*mapper.Result, error) {
	return algorithms[a].run(ctx, n, opt)
}

// Map runs one algorithm over the prepared circuit under ctx, audits the
// result and (when check is true) verifies functional equivalence
// against the original network. The audit is a full structural
// re-verification and a real slice of a run's wall time, so it is timed
// and traced like the other phases: charged to the context's obs.Stats
// and recorded as an "audit <net>" span.
func (p *Pipeline) Map(ctx context.Context, a Algorithm, opt mapper.Options, check bool) (*mapper.Result, error) {
	res, err := a.Run(ctx, p.Unate, opt)
	return p.accept(ctx, a, res, err, check)
}

// mapFrom is Map for a caller that holds dom, p's Domino mapping under
// the same opt: RS and RS-deep are derived from it (mapper.Rearrange,
// the paper's RS_Map post-pass) instead of running the DP again, and
// audited and checked as Map does. Any other algorithm, or a nil dom,
// goes through Map.
func (p *Pipeline) mapFrom(ctx context.Context, dom *mapper.Result, a Algorithm, opt mapper.Options, check bool) (*mapper.Result, error) {
	if dom == nil || (a != RS && a != RSDeep) {
		return p.Map(ctx, a, opt, check)
	}
	res, err := mapper.Rearrange(dom, a == RSDeep)
	return p.accept(ctx, a, res, err, check)
}

// accept finishes one mapping of p by algorithm a: a mapping error is
// wrapped, the result audited (timed and traced as the audit phase) and,
// when check is true, verified equivalent to the original network.
func (p *Pipeline) accept(ctx context.Context, a Algorithm, res *mapper.Result, err error, check bool) (*mapper.Result, error) {
	if err != nil {
		return nil, fmt.Errorf("report: %s on %s: %w", a, p.Name, err)
	}
	if err := obs.RunPhase(ctx, obs.PhaseAudit, "pipeline", "audit "+p.Name, res.Audit); err != nil {
		return nil, fmt.Errorf("report: %s on %s: audit: %w", a, p.Name, err)
	}
	if check {
		if err := verifyAgain(p, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyAgain re-checks an existing (possibly transformed) mapping against
// the pipeline's original network.
func verifyAgain(p *Pipeline, res *mapper.Result) error {
	return verify.MustBeEquivalent(p.Orig, res, verify.DefaultOptions())
}
