// Package chaostest runs the mapping service in-process under a seeded
// randomized fault schedule and checks the resilience layer's core
// promise: whatever faults fire, every non-error response the service
// returns is a correct, audit-clean, PBE-safe mapping, byte-identical to
// a clean fault-free run.
//
// One entry point, Run, serves three campaign presets. Each fixes a
// topology (one node, or a router over peered replicas, with or without
// state dirs), a fault schedule (which points are armed, which node is
// killed or crashed and when it restarts) and a request stream:
//
//   - Single: one node with every fault point armed takes a sync/async
//     mix, with the explain endpoint cross-checked.
//   - Cluster: a router over three peered replicas with state dirs and
//     sparse point faults; the same mix plus identical-submission bursts
//     (the coalescing workload), one replica killed a third of the way
//     in and restarted at two thirds, with a fixed sweep during the
//     outage and after the restart (the shared cache tier).
//   - Persist: one state-dir node with only the durable tier's faults
//     armed (torn writes, partial journal appends, failed fsyncs) takes
//     synchronous requests whose bytes are saved, crashes with an async
//     batch pending, restarts with faults disarmed, and must replay
//     every saved request byte-identically.
//
// A campaign is replayable: the same seed arms the same fault schedule
// and issues the same request stream, so a violating run can be handed
// to a debugger as one integer.
package chaostest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/cluster"
	"soidomino/internal/faultpoint"
	"soidomino/internal/mapper"
	"soidomino/internal/service"
	"soidomino/internal/store"
)

// Campaign names a preset.
type Campaign string

const (
	Single  Campaign = "single"
	Cluster Campaign = "cluster"
	Persist Campaign = "persist"
)

// preset is one campaign's fixed choices.
type preset struct {
	// requests and faultProb are the defaults of Config.Requests and
	// Config.FaultProb.
	requests  int
	faultProb float64
	// Topology: replicas > 1 puts a router (replication factor 2) in
	// front and peers every replica with the others; stateDir gives each
	// node a journal and durable store that survive its kill.
	replicas int
	stateDir bool
	// arm builds a node's fault registry.
	arm func(seed int64, rng *rand.Rand, prob float64) *faultpoint.Registry
	// mix draws one request in four as an async submit-and-poll and
	// cross-checks the explain endpoint on every seventh.
	mix bool
	// outage adds identical-submission bursts and kills a victim at 1/3
	// of the requests, restarting it armed at 2/3, with a fixed sweep
	// during the outage and after the restart.
	outage bool
	// crash requires every submission to complete and saves its bytes,
	// then crashes the node with an async batch pending, restarts it
	// disarmed and replays every saved request.
	crash bool
}

var presets = map[Campaign]preset{
	Single:  {requests: 40, faultProb: 0.1, replicas: 1, arm: armFaults, mix: true},
	Cluster: {requests: 120, faultProb: 0.02, replicas: 3, stateDir: true, arm: armFaults, mix: true, outage: true},
	Persist: {requests: 12, faultProb: 0.25, replicas: 1, stateDir: true, arm: armDurable, crash: true},
}

// pendingAtCrash is the Persist preset's async batch left in flight when
// the crash lands, so the journal has unfinished work to re-admit.
const pendingAtCrash = 6

// faultLatency is the magnitude of injected Latency faults.
const faultLatency = 2 * time.Millisecond

// Config shapes one campaign. Zero fields select the preset's defaults.
type Config struct {
	// Campaign selects the preset (default Single).
	Campaign Campaign
	// Seed drives the whole campaign: fault schedules, request stream,
	// firing decisions and the choice of kill victim.
	Seed int64
	// Requests is the number of submissions to issue (default 40 Single,
	// 120 Cluster, 12 Persist).
	Requests int
	// Deadline optionally bounds the request loop's wall clock; reaching
	// it stops issuing new requests (it is a smoke-budget, not an error).
	// The Persist crash and replay still follow.
	Deadline time.Duration
	// Workers and QueueDepth size each node (defaults 2, 8).
	Workers, QueueDepth int
	// FaultProb is the per-call firing probability of the armed points
	// (default 0.1 Single, 0.02 Cluster — whose main fault is the
	// kill/restart cycle — and 0.25 Persist, the per-write tear
	// probability; journal tears and fsync failures fire at half of it).
	FaultProb float64
	// SimCycles is the soisim oracle depth per verified response
	// (default 3; negative skips simulation).
	SimCycles int
}

func (c Config) withDefaults() (Config, preset, error) {
	if c.Campaign == "" {
		c.Campaign = Single
	}
	p, ok := presets[c.Campaign]
	if !ok {
		return c, p, fmt.Errorf("unknown campaign %q (want single, cluster or persist)", c.Campaign)
	}
	if c.Requests <= 0 {
		c.Requests = p.requests
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.FaultProb <= 0 {
		c.FaultProb = p.faultProb
	}
	if c.SimCycles == 0 {
		c.SimCycles = 3
	}
	return c, p, nil
}

// Report is one campaign's outcome. Violations is the only field that
// may fail a campaign: everything else is bookkeeping, and a preset
// leaves the counters it has no use for at zero.
type Report struct {
	Campaign Campaign
	Seed     int64
	Requests int
	// Done counts responses that reached JobDone and passed verification.
	Done int
	// Degraded counts done responses flagged degraded (a subset of Done).
	Degraded int
	// FailedInjected counts jobs failed/canceled by an injected fault —
	// the designed outcome of a fired Error/Panic/Cancel fault.
	FailedInjected int
	// Rejected counts submissions that errored at the client (shed,
	// queue-full, a poll cut off by a kill, retry budget exhausted).
	Rejected int
	// Kills and Restarts count the node lifecycle events injected.
	Kills, Restarts int
	// Coalesced sums the replicas' in-flight-table attachments (jobs
	// that rode an identical job's DP run).
	Coalesced int64
	// PeerHits counts jobs a replica answered from a sibling's result
	// cache instead of mapping (the shared cache tier working).
	PeerHits int64
	// Failovers counts router submissions that had to move past the
	// preferred replica.
	Failovers int64
	// Recovered and Readmitted count jobs the restarted node rebuilt
	// from its journal: terminal jobs re-created in place and unfinished
	// jobs re-enqueued under their original ids.
	Recovered, Readmitted int64
	// WarmHits is the restarted node's durable-store hit count right
	// after the restart: > 0 means it came back warm from disk.
	WarmHits int64
	// StoreCorrupt sums torn or corrupt durable-store records the live
	// nodes detected and quarantined (boot fsck plus read-path checks).
	StoreCorrupt int64
	// TornInjected counts the store tears and fsync failures fired.
	TornInjected int64
	// Replayed counts Persist resubmissions whose bytes matched the
	// saved pre-crash response exactly.
	Replayed int
	// FaultsFired is the per-point firing census, summed over every
	// registry the campaign armed.
	FaultsFired map[string]int64
	// Violations are silent-corruption findings: a done response that
	// failed an oracle, differed from the clean run or drifted across a
	// crash, a job that failed with an error no fault explains, a cold
	// restart. Empty means the campaign passed.
	Violations []string
}

func (r *Report) String() string {
	parts := []string{fmt.Sprintf("%s chaos seed=%d: %d requests", r.Campaign, r.Seed, r.Requests)}
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if r.Campaign == Cluster {
		add("%d kills/%d restarts", r.Kills, r.Restarts)
	}
	add("%d done (%d degraded)", r.Done, r.Degraded)
	if r.Campaign != Persist {
		add("%d failed-by-fault", r.FailedInjected)
		add("%d rejected", r.Rejected)
	}
	if r.Campaign == Cluster {
		add("%d coalesced", r.Coalesced)
		add("%d peer-cache hits", r.PeerHits)
		add("%d failovers", r.Failovers)
	}
	if r.Campaign != Single {
		add("%d recovered", r.Recovered)
		add("%d readmitted", r.Readmitted)
		add("%d warm hits", r.WarmHits)
		add("%d tears injected", r.TornInjected)
		add("%d corrupt quarantined", r.StoreCorrupt)
	}
	if r.Campaign == Persist {
		add("%d byte-stable replays", r.Replayed)
	}
	add("%d faults fired", totalFired(r.FaultsFired))
	add("%d violations", len(r.Violations))
	return strings.Join(parts, ", ")
}

func totalFired(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// campaign is one Run's state.
type campaign struct {
	ctx  context.Context
	cfg  Config
	p    preset
	rng  *rand.Rand
	rep  *Report
	pool []workload
	regs []*faultpoint.Registry

	stateRoot string
	nodes     []*node
	rt        *cluster.Router
	routerSrv *http.Server
	url       string // the router, or the one node
	cli       *client.Client

	mu    sync.Mutex // guards rep while burst riders classify
	saved []savedResponse
}

// savedResponse pairs a Persist request with the exact bytes served for
// it, the oracle for the post-restart replay.
type savedResponse struct {
	wl    workload
	req   service.MapRequest
	bytes string
}

// Run executes one campaign and returns its report. Every JobDone
// response — mapped, cache-served, peer-cache-served, coalesced, failed
// over or re-admitted after a restart — is re-derived locally fault-free
// and byte-compared. The returned error covers harness failures (listen,
// rebind) and cancellation of ctx, which also returns the partial
// report; verification findings go to Report.Violations. Every node the
// campaign started is stopped before Run returns.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, p, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &campaign{
		ctx:  ctx,
		cfg:  cfg,
		p:    p,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rep:  &Report{Campaign: cfg.Campaign, Seed: cfg.Seed},
		pool: workloads(),
	}
	defer c.teardown()
	if err := c.boot(); err != nil {
		return nil, err
	}
	if err := c.stream(); err != nil {
		return nil, err
	}
	if p.crash && ctx.Err() == nil {
		if err := c.crashAndReplay(); err != nil {
			return nil, err
		}
	}
	c.census()
	return c.rep, ctx.Err()
}

// arm builds node idx's fault registry and keeps it for the census.
func (c *campaign) arm(idx int) *faultpoint.Registry {
	reg := c.p.arm(c.cfg.Seed^int64(idx), c.rng, c.cfg.FaultProb)
	c.regs = append(c.regs, reg)
	return reg
}

// stream issues the request stream, firing the outage schedule's kill
// and restart at their marks.
func (c *campaign) stream() error {
	var victim *node
	if c.p.outage {
		victim = c.nodes[c.rng.Intn(len(c.nodes))]
	}
	killAt, restartAt := c.cfg.Requests/3, 2*c.cfg.Requests/3
	start := time.Now()
	for i := 0; i < c.cfg.Requests; i++ {
		if c.ctx.Err() != nil {
			break
		}
		if c.cfg.Deadline > 0 && time.Since(start) > c.cfg.Deadline {
			break
		}
		// >= not ==: a burst can jump the loop index past the exact mark.
		if victim != nil && c.rep.Kills == 0 && i >= killAt {
			// Results are written behind their responses: a victim killed
			// before one lands comes back cold for want of it.
			deadline := time.Now().Add(5 * time.Second)
			for store.Stored(victim.cfg.StateDir) == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			victim.kill()
			c.rep.Kills++
			c.sweep(-1000)
		}
		if victim != nil && c.rep.Restarts == 0 && i >= restartAt {
			if err := c.restart(victim, true); err != nil {
				return err
			}
			c.sweep(-2000)
		}

		wl, req := randRequest(c.rng, c.pool)
		if c.p.outage && c.rng.Intn(8) == 0 {
			// Identical-submission burst: the coalescing workload. The
			// riders share a key, so the router sends them to one replica,
			// whose in-flight table can collapse them into one DP run.
			burst := 2 + c.rng.Intn(3)
			if rem := c.cfg.Requests - i; burst > rem {
				burst = rem
			}
			var wg sync.WaitGroup
			for b := 0; b < burst; b++ {
				c.rep.Requests++
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, err := c.cli.Map(c.ctx, &req)
					c.classify(i, wl, &req, v, err)
				}(i + b)
			}
			i += burst - 1 // the loop's own increment covers the last rider
			wg.Wait()
			continue
		}
		c.rep.Requests++
		var v *service.JobView
		var err error
		if c.p.mix && c.rng.Intn(4) == 0 {
			v, err = c.cli.MapWait(c.ctx, &req, 5*time.Millisecond)
		} else {
			v, err = c.cli.Map(c.ctx, &req)
		}
		if err != nil && c.ctx.Err() != nil {
			break
		}
		if c.classify(i, wl, &req, v, err) && c.p.crash {
			b, err := service.EncodeJSON(v.Result)
			if err != nil {
				return err
			}
			c.saved = append(c.saved, savedResponse{wl: wl, req: req, bytes: string(b)})
		}
	}
	return nil
}

// classify folds one submission outcome into the report and reports
// whether it was a verified done response. A done response must pass
// verifyDone (and, on every seventh request of a mixed stream, the
// explain cross-check — gated on the index, not the rng, so a seed's
// draw positions stay fixed). A failure must be explained by an
// injected fault; under the crash schedule the armed faults never touch
// the mapping path, so every failure and rejection is a violation.
func (c *campaign) classify(i int, wl workload, req *service.MapRequest, v *service.JobView, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	label := fmt.Sprintf("request %d (%s/%s)", i, wl.label, req.Algorithm)
	if err != nil {
		if c.p.crash {
			c.violate("%s: %v", label, err)
			return false
		}
		// Rejections (429/503, exhausted retries, injected decode errors
		// surfacing as 400s) are designed outcomes.
		c.rep.Rejected++
		return false
	}
	switch v.State {
	case service.JobDone:
		msg := verifyDone(req, wl, v, c.cfg.SimCycles, c.cfg.Seed^int64(i))
		if msg == "" && c.p.mix && i%7 == 3 {
			msg = checkExplain(c.ctx, c.cli, v)
		}
		if msg != "" {
			c.violate("%s: %s", label, msg)
			return false
		}
		c.rep.Done++
		if v.Result.Degraded {
			c.rep.Degraded++
		}
		return true
	case service.JobFailed, service.JobCanceled:
		if c.p.crash || !injectedFailure(v.Error) {
			c.violate("%s: organic failure %q", label, v.Error)
			return false
		}
		c.rep.FailedInjected++
	default:
		c.violate("request %d: non-terminal state %s from a synchronous call", i, v.State)
	}
	return false
}

func (c *campaign) violate(format string, args ...any) {
	c.rep.Violations = append(c.rep.Violations, fmt.Sprintf(format, args...))
}

// sweep issues one fixed default-options submission per workload ×
// algorithm. Run once while the victim is down and once after its
// restart, it exercises the shared cache tier deterministically: keys
// whose ring primary is the victim are computed by a sibling during the
// outage, so the restarted victim must answer the repeat from the
// sibling's cache — a peer hit — instead of remapping.
func (c *campaign) sweep(tag int) {
	for wi, wl := range c.pool {
		for ai, algo := range algos {
			req := wl.req
			req.Algorithm = algo
			c.rep.Requests++
			v, err := c.cli.Map(c.ctx, &req)
			c.classify(tag+wi*len(algos)+ai, wl, &req, v, err)
		}
	}
}

// restart brings a killed node back over its surviving state dir, armed
// with a fresh registry or disarmed, and checks the recovery contract:
// the node comes back warm from its journal and durable store, and every
// job it re-admitted converges under its original id.
func (c *campaign) restart(n *node, armed bool) error {
	n.cfg.Faults = nil
	if armed {
		n.cfg.Faults = c.arm(n.idx)
	}
	if err := n.restart(); err != nil {
		return err
	}
	c.rep.Restarts++
	if c.rt != nil {
		// Wait for the prober to readmit the restarted replica: until
		// then the router prefers its warm siblings and the next sweep
		// would never reach it.
		readmit := time.Now().Add(5 * time.Second)
		for c.rt.ReadyReplicas() < len(c.nodes) && time.Now().Before(readmit) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	c.rep.Recovered = n.svc.Counter("jobs_recovered")
	c.rep.Readmitted = n.svc.Counter("jobs_readmitted")
	c.rep.WarmHits = n.svc.Counter("store_hits")
	if c.rep.Done > 0 && c.rep.WarmHits == 0 {
		c.violate("restarted node %d came back cold: no durable-store hits during journal recovery", n.idx)
	}
	c.verifyReadmitted(n)
	return nil
}

// verifyReadmitted checks every job the restarted node re-admitted from
// its journal: each must reach a terminal state under its original id (a
// restart must never 404 a poller), and a completed re-admission must
// byte-compare against a clean re-derivation like any live response. A
// failure is legitimate only when the re-admission path itself (queue
// full on boot) or, on a node restarted armed, an injected fault
// explains it.
func (c *campaign) verifyReadmitted(n *node) {
	armed := n.cfg.Faults != nil
	for id, req := range n.svc.RecoveredJobs() {
		wl, ok := workloadFromRequest(req)
		if !ok {
			c.violate("readmitted %s: journaled request matches no campaign workload", id)
			continue
		}
		label := fmt.Sprintf("readmitted %s (%s/%s)", id, wl.label, req.Algorithm)
		v, err := pollJob(c.ctx, n.url(), id, 10*time.Second)
		if err != nil {
			c.violate("%s: %v", label, err)
			continue
		}
		switch v.State {
		case service.JobDone:
			if msg := verifyDone(req, wl, v, c.cfg.SimCycles, c.cfg.Seed); msg != "" {
				c.violate("%s: %s", label, msg)
			}
		case service.JobFailed, service.JobCanceled:
			if !strings.Contains(v.Error, "not re-admitted") && !(armed && injectedFailure(v.Error)) {
				c.violate("%s: organic failure %q", label, v.Error)
			}
		default:
			c.violate("readmitted %s: still %s after the poll deadline", id, v.State)
		}
	}
}

// crashAndReplay is the crash schedule: launch an async batch, crash
// the node while it is in flight (its jobs reach the journal as
// accepted but mostly never terminal), restart it disarmed over
// the same dir, and replay every saved request. Whether an answer comes
// from the recovered store, the warmed memory cache or a fresh mapping
// run, its bytes must be identical — a quarantined tear may cost a
// recompute, never a different answer.
func (c *campaign) crashAndReplay() error {
	n := c.nodes[0]
	var wg sync.WaitGroup
	for i := 0; i < pendingAtCrash; i++ {
		_, req := randRequest(c.rng, c.pool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.cli.Map(c.ctx, &req) // outcome irrelevant: the crash cuts it down
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the batch reach the queue
	n.kill()
	c.rep.Kills++
	wg.Wait()
	if err := c.restart(n, false); err != nil {
		return err
	}
	for i, s := range c.saved {
		label := fmt.Sprintf("replay %d (%s/%s)", i, s.wl.label, s.req.Algorithm)
		v, err := c.cli.Map(c.ctx, &s.req)
		if err != nil {
			c.violate("%s: %v", label, err)
			continue
		}
		if v.State != service.JobDone {
			c.violate("%s: state %s (%s)", label, v.State, v.Error)
			continue
		}
		b, err := service.EncodeJSON(v.Result)
		if err != nil {
			return err
		}
		if string(b) != s.bytes {
			c.violate("%s: bytes drifted across the crash (silent corruption)", label)
			continue
		}
		c.rep.Replayed++
	}
	return nil
}

// census closes the report: the router and every live node must have
// survived the campaign, their counters are summed, and the fault census
// is totalled over every registry armed.
func (c *campaign) census() {
	if c.rt != nil {
		c.checkHealth(c.url, "router")
		c.rep.Failovers = c.rt.Counter("routed_failovers")
	}
	for _, n := range c.nodes {
		if !n.alive() {
			continue
		}
		c.checkHealth(n.url(), fmt.Sprintf("node %d", n.idx))
		c.rep.Coalesced += n.svc.Counter("jobs_coalesced")
		c.rep.PeerHits += n.svc.Counter("cluster_cache_peer_hits")
		c.rep.StoreCorrupt += n.svc.Counter("store_corrupt")
	}
	fired := make(map[string]int64)
	for _, reg := range c.regs {
		for name, n := range reg.Fired() {
			fired[name] += n
		}
	}
	c.rep.FaultsFired = fired
	c.rep.TornInjected = fired[store.PointWriteTorn] + fired[store.PointJournalPartial] + fired[store.PointFsyncFail]
}

// armFaults builds a registry with every defined fault point armed.
// Kinds rotate pseudo-randomly over the non-Flip behaviours: Flip faults
// would silently change mapping results, which is exactly what the
// byte-compare oracle forbids (Flip has its own targeted tests in
// internal/mapper).
func armFaults(seed int64, rng *rand.Rand, prob float64) *faultpoint.Registry {
	reg := faultpoint.New(seed ^ 0x5eed)
	kinds := []faultpoint.Kind{faultpoint.Error, faultpoint.Panic, faultpoint.Latency, faultpoint.Cancel}
	for _, pt := range faultpoint.Points() {
		p := prob
		if pt.Name == mapper.PointCombine {
			// The combine point rolls once per DP node — hundreds of
			// rolls per job — so an unscaled probability would fail
			// essentially every job and verify nothing. Scale it so a
			// whole job's survival odds stay comparable to the
			// once-per-job points.
			p /= 50
		}
		reg.Arm(pt.Name, faultpoint.Fault{
			Kind:    kinds[rng.Intn(len(kinds))],
			Prob:    p,
			Latency: faultLatency,
		})
	}
	// The durable store's tear points are the exception to the no-Flip
	// rule: a fired flip corrupts only the on-disk copy, never the bytes
	// already served, so the byte-compare oracle stays sound while the
	// boot fsck and read path are forced to detect and quarantine real
	// torn records. They are consulted with Flip(), so the rotating
	// non-Flip kinds armed above would leave them inert. On a node
	// without a state dir they stay inert.
	reg.Arm(store.PointWriteTorn, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 4 * prob})
	reg.Arm(store.PointJournalPartial, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 2 * prob})
	return reg
}

// armDurable arms only the durable tier's points — tears and fsync
// failures, faults that corrupt disk, never served bytes — so every
// submission completes and its bytes can anchor the replay compare.
func armDurable(seed int64, _ *rand.Rand, prob float64) *faultpoint.Registry {
	reg := faultpoint.New(seed ^ 0x7e47)
	reg.Arm(store.PointWriteTorn, faultpoint.Fault{Kind: faultpoint.Flip, Prob: prob})
	reg.Arm(store.PointJournalPartial, faultpoint.Fault{Kind: faultpoint.Flip, Prob: prob / 2})
	reg.Arm(store.PointFsyncFail, faultpoint.Fault{Kind: faultpoint.Error, Prob: prob / 2})
	return reg
}
