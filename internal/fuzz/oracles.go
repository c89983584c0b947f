package fuzz

import (
	"fmt"
	"slices"

	"soidomino/internal/mapper"
	"soidomino/internal/pbe"
	"soidomino/internal/report"
	"soidomino/internal/soisim"
	"soidomino/internal/verify"
)

// Oracle checks one mapped variant of a case; returning a non-nil error
// records a violation under the oracle's name.
type Oracle struct {
	Name  string
	Check func(c *Case, v *VariantResult) error
}

// CrossOracle checks relations across the variants of one case, e.g. the
// metamorphic cost inequalities between mappers.
type CrossOracle struct {
	Name  string
	Check func(c *Case) []Violation
}

// DefaultOracles returns the per-variant oracle set in execution order.
func DefaultOracles() []Oracle {
	return []Oracle{
		{Name: "audit", Check: checkAudit},
		{Name: "equivalence", Check: checkEquivalence},
		{Name: "discharge-prediction", Check: checkDischargePrediction},
		{Name: "netlist", Check: checkNetlist},
		{Name: "soisim", Check: checkSim},
	}
}

// DefaultCrossOracles returns the cross-variant metamorphic relations.
func DefaultCrossOracles() []CrossOracle {
	return []CrossOracle{
		{Name: "metamorphic-total", Check: crossTotal},
		{Name: "metamorphic-disch", Check: crossDisch},
		{Name: "metamorphic-strash", Check: crossStrash},
		{Name: "key-faithfulness", Check: crossKeyFaithfulness},
		{Name: "rs-derivation", Check: crossRSDerivation},
	}
}

func checkAudit(c *Case, v *VariantResult) error { return v.Res.Audit() }

func checkEquivalence(c *Case, v *VariantResult) error {
	return verify.MustBeEquivalent(c.Pipe.Orig, v.Res, verify.DefaultOptions())
}

// checkDischargePrediction compares the DP's own per-gate discharge
// forecast (tuple OwnDisch, surfaced as Gate.PredictedDischarges) against
// an independent structural PBE analysis of the traced pulldown. RS
// variants reorder pulldowns in their discharge pass and record -1, which is
// skipped (crossRSDerivation checks them against Domino instead); note
// the comparison is against the unpruned discharge count, so it stays
// exact under SequenceAware pruning too.
func checkDischargePrediction(c *Case, v *VariantResult) error {
	for _, g := range v.Res.Gates {
		if g.PredictedDischarges < 0 || g.Compound != nil {
			continue
		}
		structural := int32(len(pbe.GateDischargePoints(g.Nodes)))
		if structural != g.PredictedDischarges {
			return fmt.Errorf("gate %d (%s): DP predicted %d discharges, structural analysis found %d (pulldown %s)",
				g.ID, g.Output, g.PredictedDischarges, structural, v.Res.Expr(g.Nodes))
		}
	}
	return nil
}

func checkNetlist(c *Case, v *VariantResult) error {
	nl, err := v.Netlist()
	if err != nil {
		return err
	}
	if err := nl.Audit(); err != nil {
		return err
	}
	return nl.CrossCheck(v.Res)
}

// checkSim drives the realized circuit through a short random switch-level
// simulation: protected netlists must never corrupt an output via the
// parasitic bipolar effect, and the simulated outputs must track the
// mapped function cycle for cycle.
func checkSim(c *Case, v *VariantResult) error {
	if c.Cfg.SimCycles <= 0 {
		return nil
	}
	nl, err := v.Netlist()
	if err != nil {
		return err // already reported by checkNetlist; keep the oracle safe anyway
	}
	rng := newRand(c.Seed ^ int64(v.Index)<<17 ^ 0x5eed)
	sim := soisim.New(nl, soisim.DefaultConfig())
	for cyc, vec := range soisim.RandomVectors(nl, rng, c.Cfg.SimCycles) {
		got, events, err := sim.Cycle(vec)
		if err != nil {
			return fmt.Errorf("cycle %d: %v", cyc, err)
		}
		for _, ev := range events {
			if ev.Corrupted {
				return fmt.Errorf("cycle %d: PBE corrupted output: %v", cyc, ev)
			}
		}
		want, err := v.Res.Eval(vec)
		if err != nil {
			return fmt.Errorf("cycle %d: %v", cyc, err)
		}
		for out, w := range want {
			if got[out] != w {
				return fmt.Errorf("cycle %d: output %q simulated %v, function says %v", cyc, out, got[out], w)
			}
		}
	}
	return nil
}

// crossStrash is the strash front-end's metamorphic oracle. The regular
// sweep maps the canonicalized (strash-on) pipeline, and its equivalence
// oracle already proves those mappings match the submitted source; this
// oracle adds the strash-off side on a deterministic subset of the grid
// (area/k1/footless/plain, one point per algorithm): mapping the network
// exactly as submitted must also stay equivalent, and the canonicalized
// mapping must cost no more than the direct one within strashSlack on
// T_total and levels, because strash only merges duplicate logic and
// removes dead logic. A front-end rewrite that corrupts functions is
// caught by equivalence; one that systematically pessimizes the DP's
// cone boundaries is caught here.
func crossStrash(c *Case) []Violation {
	var out []Violation
	for _, v := range c.Variants {
		if v.Res == nil || !anchorPoint(v.Opt) {
			continue
		}
		raw, err := c.Raw()
		if err != nil {
			return append(out, Violation{
				Oracle: "metamorphic-strash",
				Detail: fmt.Sprintf("strash-off pipeline failed: %v", err),
			})
		}
		rawRes, err := v.Algo.Run(c.Context(), raw.Unate, v.Opt)
		if err != nil {
			if c.Context().Err() != nil {
				return out // sweep canceled or timed out: not this oracle's finding
			}
			out = append(out, Violation{
				Oracle: "metamorphic-strash", Variant: v.Name,
				Detail: fmt.Sprintf("strash-off mapping failed: %v", err),
			})
			continue
		}
		if err := verify.MustBeEquivalent(c.Net, rawRes, verify.DefaultOptions()); err != nil {
			out = append(out, Violation{
				Oracle: "metamorphic-strash", Variant: v.Name,
				Detail: fmt.Sprintf("strash-off mapping inequivalent to source: %v", err),
			})
			continue
		}
		if on, off := v.Res.Stats.TTotal, rawRes.Stats.TTotal; on > off+strashSlack(off, c.Cfg.StrashEps) {
			out = append(out, Violation{
				Oracle: "metamorphic-strash", Variant: v.Name,
				Detail: fmt.Sprintf("strash-on Ttotal=%d exceeds strash-off Ttotal=%d + slack %d", on, off, strashSlack(off, c.Cfg.StrashEps)),
			})
		}
		if on, off := v.Res.Stats.Levels, rawRes.Stats.Levels; on > off+strashSlack(off, c.Cfg.StrashEps) {
			out = append(out, Violation{
				Oracle: "metamorphic-strash", Variant: v.Name,
				Detail: fmt.Sprintf("strash-on levels=%d exceeds strash-off levels=%d + slack %d", on, off, strashSlack(off, c.Cfg.StrashEps)),
			})
		}
	}
	return out
}

// anchorPoint selects the grid subset the pipeline-level oracles re-map
// on: area objective, k=1, footless, plain — one point per algorithm.
func anchorPoint(opt mapper.Options) bool {
	return opt.Objective == mapper.Area && opt.ClockWeight == 1 && !opt.AlwaysFooted && !opt.SequenceAware
}

// crossKeyFaithfulness is the oracle behind the service cache key. A
// seeded shuffled twin of the case (logic.ShuffledTwin: every gate
// re-declared in a random topological order, internal names dropped) is
// the same submission as different text, so it must strash to the same
// Key and, on the anchor points, map to the same gates (Result.Dump,
// byte for byte). A Key that merged submissions the mapper tells apart
// would let a cache hit serve one submission's result for the other.
func crossKeyFaithfulness(c *Case) []Violation {
	if c.Pipe == nil || c.Pipe.Strash == nil {
		return nil
	}
	twin := c.Net.ShuffledTwin(newRand(c.Seed ^ 0x7a1e))
	pipe, err := report.PrepareNetworkContext(c.Context(), twin)
	if err != nil {
		return []Violation{{Oracle: "key-faithfulness", Detail: fmt.Sprintf("twin pipeline failed: %v", err)}}
	}
	if pipe.Strash.Key != c.Pipe.Strash.Key {
		return []Violation{{Oracle: "key-faithfulness", Detail: "shuffled twin strashes to a different Key"}}
	}
	var out []Violation
	for _, v := range c.Variants {
		if v.Res == nil || !anchorPoint(v.Opt) {
			continue
		}
		res, err := v.Algo.Run(c.Context(), pipe.Unate, v.Opt)
		if err != nil {
			if c.Context().Err() != nil {
				return out // sweep canceled or timed out: not this oracle's finding
			}
			out = append(out, Violation{
				Oracle: "key-faithfulness", Variant: v.Name,
				Detail: fmt.Sprintf("twin mapping failed: %v", err),
			})
			continue
		}
		if got, want := res.Dump(), v.Res.Dump(); got != want {
			out = append(out, Violation{
				Oracle: "key-faithfulness", Variant: v.Name,
				Detail: fmt.Sprintf("shuffled twin shares the Key but maps differently:\n%s\nvs\n%s", got, want),
			})
		}
	}
	return out
}

// strashSlack is the allowed cost excess of the strash-on mapping over
// the strash-off one: off + eps, i.e. strash may at worst double the
// mapped cost. The bound is deliberately loose because the inversion is
// structural, not a bug: sharing re-introduced by strash turns
// duplicated single-fanout logic into multi-fanout cone boundaries the
// per-cone DP cannot absorb, and the unate phase then duplicates the
// newly shared node for both polarities. Calibration on 5000-case
// campaigns measured legitimate excesses up to +87% of the strash-off
// cost (see EXPERIMENTS.md), so a constant or small-fraction slack
// false-positives; the 2x guard still catches a front-end that
// systematically inflates the mapping.
func strashSlack(off, eps int) int {
	return off + eps
}

// crossTotal checks T_total(SOI) <= T_total(Domino) + TotalEps per area
// grid point: the discharge-aware DP exists to beat (or match) the
// PBE-blind baseline on total transistors, so a systematic inversion
// means the SOI cost function or bookkeeping broke. Restricted to the
// area objective — under the depth objective both mappers minimize levels
// first and totals legitimately diverge.
func crossTotal(c *Case) []Violation {
	var out []Violation
	for _, v := range c.Variants {
		if v.Algo != report.SOI || v.Res == nil || v.Opt.Objective != mapper.Area {
			continue
		}
		dom := c.Counterpart(v, report.Domino)
		if dom == nil || dom.Res == nil {
			continue
		}
		if v.Res.Stats.TTotal > dom.Res.Stats.TTotal+c.Cfg.TotalEps {
			out = append(out, Violation{
				Oracle: "metamorphic-total",
				Detail: fmt.Sprintf("%s Ttotal=%d exceeds %s Ttotal=%d + eps %d",
					v.Name, v.Res.Stats.TTotal, dom.Name, dom.Res.Stats.TTotal, c.Cfg.TotalEps),
			})
		}
	}
	return out
}

// crossDisch checks T_disch(SOI) <= T_disch(RS) + DischEps per area grid
// point: SOI orders stacks discharge-aware during the DP, so it must not
// lose to RS_Map's post-hoc rearrangement. This is the oracle that
// catches an inverted reorder rule (see mapper.PointInvertReorder).
func crossDisch(c *Case) []Violation {
	var out []Violation
	for _, v := range c.Variants {
		if v.Algo != report.SOI || v.Res == nil || v.Opt.Objective != mapper.Area {
			continue
		}
		rs := c.Counterpart(v, report.RS)
		if rs == nil || rs.Res == nil {
			continue
		}
		if v.Res.Stats.TDisch > rs.Res.Stats.TDisch+c.Cfg.DischEps {
			out = append(out, Violation{
				Oracle: "metamorphic-disch",
				Detail: fmt.Sprintf("%s Tdisch=%d exceeds %s Tdisch=%d + eps %d",
					v.Name, v.Res.Stats.TDisch, rs.Name, rs.Res.Stats.TDisch, c.Cfg.DischEps),
			})
		}
	}
	return out
}

// crossRSDerivation holds every RS and RS-deep variant to the paper's
// definition of RS_Map: Domino_Map followed by Rearrange_Stacks on the
// finished netlist. Deriving it from the case's Domino counterpart
// (mapper.Rearrange) must give the variant's statistics and, gate by
// gate, its discharge points, point for point.
func crossRSDerivation(c *Case) []Violation {
	var out []Violation
	for _, v := range c.Variants {
		if (v.Algo != report.RS && v.Algo != report.RSDeep) || v.Res == nil {
			continue
		}
		dom := c.Counterpart(v, report.Domino)
		if dom == nil || dom.Res == nil {
			continue
		}
		fail := func(format string, args ...any) {
			out = append(out, Violation{Oracle: "rs-derivation", Variant: v.Name, Detail: fmt.Sprintf(format, args...)})
		}
		got, err := mapper.Rearrange(dom.Res, v.Algo == report.RSDeep)
		if err != nil {
			fail("deriving from %s: %v", dom.Name, err)
			continue
		}
		if got.Stats != v.Res.Stats { // equal Stats.Gates: the gates pair up
			fail("derived from %s: %v, direct run %v", dom.Name, got.Stats, v.Res.Stats)
			continue
		}
		for i, g := range got.Gates {
			if !slices.Equal(g.Discharges, v.Res.Gates[i].Discharges) {
				fail("gate %d derived from %s: discharges %v, direct run %v",
					i, dom.Name, g.Discharges, v.Res.Gates[i].Discharges)
				break
			}
		}
	}
	return out
}
