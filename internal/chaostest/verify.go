package chaostest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/client"
	"soidomino/internal/fuzz"
	"soidomino/internal/logic"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// inlineBLIF is the campaign's non-builtin workload: a small two-output
// cover that exercises the BLIF decode path (and its fault point).
const inlineBLIF = `.model chaosblif
.inputs a b c d
.outputs f g
.names a b c f
111 1
.names c d g
1- 1
-1 1
.end
`

// workload is one submission recipe plus how to rebuild its network for
// the clean re-run.
type workload struct {
	req   service.MapRequest
	label string
	build func() (*logic.Network, error)
}

// workloads returns the campaign's circuit pool.
func workloads() []workload {
	names := []string{"mux", "z4ml", "cordic"}
	var out []workload
	for _, name := range names {
		name := name
		out = append(out, workload{
			req:   service.MapRequest{Circuit: name},
			label: name,
			build: func() (*logic.Network, error) {
				b, ok := builtin.Get(name)
				if !ok {
					return nil, fmt.Errorf("unknown builtin %q", name)
				}
				return b.Build(), nil
			},
		})
	}
	out = append(out, workload{
		req:   service.MapRequest{BLIF: inlineBLIF},
		label: "chaosblif",
		build: func() (*logic.Network, error) { return blif.ParseString(inlineBLIF) },
	})
	return out
}

var algos = []string{"domino", "rs", "rsdeep", "soi"}

// workloadFromRequest resolves a journaled request back to its campaign
// workload so a re-admitted job's response can be re-derived and
// byte-compared like any other. Every campaign request is drawn from
// workloads(), so the lookup is total for journal records we wrote.
func workloadFromRequest(req *service.MapRequest) (workload, bool) {
	for _, wl := range workloads() {
		if wl.req.Circuit == req.Circuit && wl.req.BLIF == req.BLIF {
			return wl, true
		}
	}
	return workload{}, false
}

// randRequest draws one submission from the workload pool with
// randomized algorithm and options. pareto and tuple_budget are drawn
// for every algorithm, so the PBE-blind mappers' canonical options,
// which drop them, are exercised too.
func randRequest(rng *rand.Rand, pool []workload) (workload, service.MapRequest) {
	wl := pool[rng.Intn(len(pool))]
	req := wl.req
	req.Algorithm = algos[rng.Intn(len(algos))]
	opts := service.RequestOptions{ClockWeight: 1 + rng.Intn(2)}
	if rng.Intn(3) == 0 {
		opts.Pareto = true
		if rng.Intn(2) == 0 {
			opts.TupleBudget = 8 // tiny: forces the degradation path
		}
	}
	if rng.Intn(4) == 0 {
		opts.AlwaysFooted = true
	}
	if rng.Intn(4) == 0 {
		opts.SequenceAware = true
	}
	// Strash-off submissions exercise the opt-out path and key split
	// under chaos. Drawn last so earlier option draws keep their stream
	// positions within a request.
	if rng.Intn(4) == 0 {
		opts.StrashOff = true
	}
	req.Options = &opts
	return wl, req
}

// checkExplain cross-checks GET /v1/jobs/{id}/explain against the
// attribution already delivered on the job view: both read the same
// record, so any disagreement is a bookkeeping bug.
func checkExplain(ctx context.Context, cli *client.Client, v *service.JobView) string {
	ev, err := cli.Explain(ctx, v.ID)
	if err != nil {
		return "explain fetch failed: " + err.Error()
	}
	if ev.ID != v.ID || ev.State != v.State {
		return fmt.Sprintf("explain identity mismatch: got %s/%s, want %s/%s",
			ev.ID, ev.State, v.ID, v.State)
	}
	a, b := v.Attribution, ev.Attribution
	if b == nil {
		return "explain response without an attribution record"
	}
	if a.CacheTier != b.CacheTier || a.WallMS != b.WallMS || a.QueueWaitMS != b.QueueWaitMS {
		return fmt.Sprintf("explain disagrees with the job view: tier %s/%.3f/%.3f vs %s/%.3f/%.3f",
			b.CacheTier, b.QueueWaitMS, b.WallMS, a.CacheTier, a.QueueWaitMS, a.WallMS)
	}
	return ""
}

// injectedFailure reports whether a job error message is attributable to
// the fault schedule: injected errors and panics name their fault point;
// cancellations and deadlines can be caused by Cancel and Latency kinds.
func injectedFailure(msg string) bool {
	for _, marker := range []string{"faultpoint", "injected panic", "injected fault",
		context.Canceled.Error(), context.DeadlineExceeded.Error()} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

// verifyAttribution checks the attribution record attached to a done
// response for internal consistency with the job view it rides on: the
// claimed cache tier must agree with the view's cached/coalesced flags,
// times must be non-negative, and a mapped run's per-phase times must be
// present and nest inside its wall time. Attribution is an observability
// surface — it must never disagree with the job's actual outcome.
func verifyAttribution(v *service.JobView) string {
	a := v.Attribution
	if a == nil {
		return "done response without an attribution record"
	}
	switch {
	case v.Coalesced:
		if a.CacheTier != service.TierCoalesced {
			return fmt.Sprintf("coalesced response attributed to tier %q", a.CacheTier)
		}
	case v.Cached:
		if a.CacheTier != service.TierLocal && a.CacheTier != service.TierPeer &&
			a.CacheTier != service.TierStore {
			return fmt.Sprintf("cached response attributed to tier %q", a.CacheTier)
		}
	default:
		if a.CacheTier != service.TierMiss {
			return fmt.Sprintf("mapped response attributed to tier %q", a.CacheTier)
		}
	}
	if a.QueueWaitMS < 0 || a.WallMS < 0 {
		return fmt.Sprintf("negative attribution times (queue %.3fms, wall %.3fms)",
			a.QueueWaitMS, a.WallMS)
	}
	if a.CacheTier == service.TierMiss {
		if len(a.PhasesMS) == 0 {
			return "mapped response without per-phase times"
		}
		var sum float64
		for name, phaseMS := range a.PhasesMS {
			if phaseMS < 0 {
				return fmt.Sprintf("negative phase time for %s", name)
			}
			sum += phaseMS
		}
		// Phases are nested inside the run wall; both are measured with
		// separate clock reads, so allow scheduling-jitter headroom.
		if sum > a.WallMS*1.1+1 {
			return fmt.Sprintf("phase times sum to %.3fms, exceeding run wall %.3fms", sum, a.WallMS)
		}
	}
	return ""
}

// verifyDone checks one JobDone response against a clean local re-run:
// the service's bytes must match the fault-free computation exactly, and
// the clean result must pass the full fuzz oracle battery (audit,
// equivalence, discharge prediction, netlist audit + cross-check, soisim
// with no PBE corruption). Mapping is deterministic, so any divergence
// is a silent corruption. Returns "" on success.
func verifyDone(req *service.MapRequest, wl workload, v *service.JobView, simCycles int, seed int64) string {
	if v.Result == nil {
		return "done response without a result"
	}
	if msg := verifyAttribution(v); msg != "" {
		return msg
	}
	// Resolve as the daemon does: the canonical options of the request's
	// algorithm, every field it does not read at its default.
	algo, opt, err := service.ResolveSpec(req)
	if err != nil {
		return "request did not resolve: " + err.Error()
	}
	src, err := wl.build()
	if err != nil {
		return "workload rebuild failed: " + err.Error()
	}
	ctx := context.Background()
	// The clean pipeline must mirror the request's strash mode: a
	// strash-off submission byte-compared against a strash-on re-run
	// would flag a designed difference as corruption.
	pipe, err := report.PrepareNetworkMode(ctx, src, opt.StrashOff)
	if err != nil {
		return "clean pipeline failed: " + err.Error()
	}
	res, err := pipe.Map(ctx, algo, opt, false)
	if err != nil {
		return "clean mapping failed: " + err.Error()
	}

	// The served options echo is the canonical options, as the clean
	// run's is.
	clean := service.NewMapResult(wl.label, pipe, res)
	if res.Options != opt {
		return fmt.Sprintf("clean run options %+v differ from the canonical %+v", res.Options, opt)
	}
	if v.Result.Options != clean.Options {
		return fmt.Sprintf("served options echo %+v, want the canonical %+v", v.Result.Options, clean.Options)
	}

	// Byte-compare: the served result against the clean computation.
	want, err := service.EncodeJSON(clean)
	if err != nil {
		return "encode clean: " + err.Error()
	}
	got, err := service.EncodeJSON(v.Result)
	if err != nil {
		return "encode served: " + err.Error()
	}
	if string(want) != string(got) {
		return "served result differs from the clean fault-free run (silent corruption)"
	}

	// Full oracle battery over the clean (byte-identical) result.
	fcfg := fuzz.DefaultConfig()
	fcfg.SimCycles = simCycles
	c := &fuzz.Case{Seed: seed, Cfg: &fcfg, Net: src, Pipe: pipe}
	vr := &fuzz.VariantResult{
		Variant: fuzz.Variant{Name: algo.Key(), Algo: algo, Opt: opt},
		Res:     res,
	}
	c.Variants = []*fuzz.VariantResult{vr}
	for _, o := range fuzz.DefaultOracles() {
		if err := o.Check(c, vr); err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Sprintf("oracle %s: %v", o.Name, err)
		}
	}
	return ""
}

// pollJob polls one job id directly at a replica until it reaches a
// terminal state. Any non-200 answer is an error: a recovered job must
// stay addressable under its original id.
func pollJob(ctx context.Context, baseURL, id string, timeout time.Duration) (*service.JobView, error) {
	deadline := time.Now().Add(timeout)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		var v service.JobView
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("poll: status %d (a restart must re-serve journaled jobs, not 404 them)", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("poll decode: %w", err)
		}
		resp.Body.Close()
		switch v.State {
		case service.JobDone, service.JobFailed, service.JobCanceled:
			return &v, nil
		}
		if time.Now().After(deadline) {
			return &v, nil // caller reports the non-terminal state
		}
		time.Sleep(5 * time.Millisecond)
	}
}
