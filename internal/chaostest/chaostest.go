// Package chaostest runs the mapping service in-process under a seeded
// randomized fault schedule and checks the resilience layer's core
// promise: whatever faults fire, every non-error response the service
// returns is a correct, audit-clean, PBE-safe mapping, byte-identical to
// a clean fault-free run.
//
// A campaign is replayable: the same seed arms the same fault schedule
// and issues the same request stream, so a violating run can be handed
// to a debugger as one integer.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/client"
	"soidomino/internal/faultpoint"
	"soidomino/internal/fuzz"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/store"
)

// Config shapes one chaos campaign. Zero fields select defaults.
type Config struct {
	// Seed drives the whole campaign: fault schedule, request stream and
	// firing decisions.
	Seed int64
	// Requests is the number of submissions to issue (default 40).
	Requests int
	// Deadline optionally bounds the campaign's wall clock; reaching it
	// stops issuing new requests (it is a smoke-budget, not an error).
	Deadline time.Duration
	// Workers and QueueDepth size the in-process server (defaults 2, 8).
	Workers, QueueDepth int
	// FaultProb arms every defined fault point with this per-call firing
	// probability (default 0.1).
	FaultProb float64
	// Latency is the magnitude of injected Latency faults (default 2ms).
	Latency time.Duration
	// SimCycles is the soisim oracle depth per verified response
	// (default 3; negative skips simulation).
	SimCycles int
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 40
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.FaultProb <= 0 {
		c.FaultProb = 0.1
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.SimCycles == 0 {
		c.SimCycles = 3
	}
	return c
}

// Report is one campaign's outcome. Violations is the only field that
// may fail a campaign: everything else is bookkeeping.
type Report struct {
	Seed     int64
	Requests int
	// Done counts responses that reached JobDone and passed verification.
	Done int
	// Degraded counts done responses flagged degraded (a subset of Done).
	Degraded int
	// FailedInjected counts jobs failed/canceled by an injected fault —
	// the designed outcome of a fired Error/Panic/Cancel fault.
	FailedInjected int
	// Rejected counts 4xx/5xx submissions (shed, queue-full, retry
	// budget exhausted) — load shedding doing its job.
	Rejected int
	// FaultsFired is the per-point firing census of the campaign.
	FaultsFired map[string]int64
	// Violations are silent-corruption findings: a done response that
	// failed an oracle, differed from the clean run, or a job that failed
	// with an error no fault explains. Empty means the campaign passed.
	Violations []string
}

func (r *Report) String() string {
	return fmt.Sprintf("chaos seed=%d: %d requests, %d done (%d degraded), %d failed-by-fault, %d rejected, %d faults fired, %d violations",
		r.Seed, r.Requests, r.Done, r.Degraded, r.FailedInjected, r.Rejected, totalFired(r.FaultsFired), len(r.Violations))
}

func totalFired(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

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

// Run executes one campaign and returns its report. The returned error
// covers harness failures (listen, shutdown); verification findings go
// to Report.Violations.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{Seed: cfg.Seed}

	reg := armFaults(cfg.Seed, rng, cfg.FaultProb, cfg.Latency)

	srv := service.New(service.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		JobRetention: time.Minute,
		Faults:       reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	baseURL := "http://" + ln.Addr().String()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx)
		srv.Shutdown(sctx)
	}()

	cli := client.New(client.Config{
		BaseURL:   baseURL,
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Budget:    2 * time.Second,
	})

	pool := workloads()
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		if ctx.Err() != nil {
			break
		}
		if cfg.Deadline > 0 && time.Since(start) > cfg.Deadline {
			break
		}
		wl, req := randRequest(rng, pool)
		rep.Requests++

		var v *service.JobView
		if rng.Intn(4) == 0 {
			v, err = cli.MapWait(ctx, &req, 5*time.Millisecond)
		} else {
			v, err = cli.Map(ctx, &req)
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			// Rejections (429/503, exhausted retries, injected decode
			// errors surfacing as 400s) are designed outcomes.
			rep.Rejected++
			continue
		}
		switch v.State {
		case service.JobDone:
			if msg := verifyDone(&req, wl, v, cfg.SimCycles, cfg.Seed^int64(i)); msg != "" {
				rep.Violations = append(rep.Violations, fmt.Sprintf("request %d (%s/%s): %s", i, wl.label, req.Algorithm, msg))
				continue
			}
			// Periodically cross-check the explain endpoint against the
			// attribution already delivered on the view. Gated on the loop
			// index, not the rng, so the request stream's draw positions
			// stay identical for a given seed.
			if i%7 == 3 {
				if msg := checkExplain(ctx, cli, v); msg != "" {
					rep.Violations = append(rep.Violations, fmt.Sprintf("request %d (%s/%s): %s", i, wl.label, req.Algorithm, msg))
					continue
				}
			}
			rep.Done++
			if v.Result.Degraded {
				rep.Degraded++
			}
		case service.JobFailed, service.JobCanceled:
			// Every failure must be explained by an injected fault: the
			// workload circuits and options are all valid.
			if !injectedFailure(v.Error) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("request %d (%s/%s): organic failure %q", i, wl.label, req.Algorithm, v.Error))
				continue
			}
			rep.FailedInjected++
		default:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("request %d: non-terminal state %s from a synchronous call", i, v.State))
		}
	}

	// The daemon must have survived the whole campaign.
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		rep.Violations = append(rep.Violations, fmt.Sprintf("healthz after campaign: %v (err %v)", resp, err))
	}
	if resp != nil {
		resp.Body.Close()
	}
	rep.FaultsFired = reg.Fired()
	return rep, nil
}

// armFaults builds a registry with every defined fault point armed.
// Kinds rotate pseudo-randomly over the non-Flip behaviours: Flip faults
// would silently change mapping results, which is exactly what the
// byte-compare oracle forbids (Flip has its own targeted tests in
// internal/mapper). Shared by the single-node and multi-node campaigns.
func armFaults(seed int64, rng *rand.Rand, faultProb float64, latency time.Duration) *faultpoint.Registry {
	reg := faultpoint.New(seed ^ 0x5eed)
	kinds := []faultpoint.Kind{faultpoint.Error, faultpoint.Panic, faultpoint.Latency, faultpoint.Cancel}
	for _, pt := range faultpoint.Points() {
		prob := faultProb
		if pt.Name == mapper.PointCombine {
			// The combine point rolls once per DP node — hundreds of
			// rolls per job — so an unscaled probability would fail
			// essentially every job and verify nothing. Scale it so a
			// whole job's survival odds stay comparable to the
			// once-per-job points.
			prob /= 50
		}
		reg.Arm(pt.Name, faultpoint.Fault{
			Kind:    kinds[rng.Intn(len(kinds))],
			Prob:    prob,
			Latency: latency,
		})
	}
	// The durable store's tear points are the exception to the no-Flip
	// rule: a fired flip corrupts only the on-disk copy, never the bytes
	// already served, so the byte-compare oracle stays sound while the
	// boot fsck and read path are forced to detect and quarantine real
	// torn records. They are consulted with Flip(), so the rotating
	// non-Flip kinds armed above would leave them inert. On a server
	// without a state dir (the single-node campaign) they stay inert.
	reg.Arm(store.PointWriteTorn, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 4 * faultProb})
	reg.Arm(store.PointJournalPartial, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 2 * faultProb})
	return reg
}

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
// randomized algorithm and options.
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
	algo, err := report.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return "algorithm did not resolve: " + err.Error()
	}
	opt, err := service.OptionsFromRequest(req.Options)
	if err != nil {
		return "options did not resolve: " + err.Error()
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

	// Byte-compare: the served result against the clean computation.
	want, err := service.EncodeJSON(service.NewMapResult(wl.label, pipe, res))
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
