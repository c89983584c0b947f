package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/cluster"
	"soidomino/internal/service"
)

// ClusterConfig shapes a multi-node campaign: an in-process router
// fronting several soimapd replicas wired into a shared result-cache
// tier, with replica kills and restarts injected mid-flight. Zero fields
// select defaults.
type ClusterConfig struct {
	// Seed drives the request stream, fault schedules, burst timing and
	// the choice of kill victim.
	Seed int64
	// Requests is the number of submissions to issue (default 120).
	// The victim replica is killed a third of the way in and restarted
	// at two thirds.
	Requests int
	// Replicas is the fleet size (default 3).
	Replicas int
	// ReplicationFactor is the router's preferred-replica count per key
	// (default 2).
	ReplicationFactor int
	// Workers and QueueDepth size each replica (defaults 2, 8).
	Workers, QueueDepth int
	// FaultProb arms every replica's fault points with this per-call
	// firing probability (default 0.02 — the multi-node campaign's main
	// fault is the kill/restart cycle, so point faults stay sparse).
	FaultProb float64
	// Latency is the magnitude of injected Latency faults (default 2ms).
	Latency time.Duration
	// SimCycles is the soisim oracle depth per verified response
	// (default 3; negative skips simulation).
	SimCycles int
	// Deadline optionally bounds the campaign's wall clock.
	Deadline time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Requests <= 0 {
		c.Requests = 120
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.FaultProb <= 0 {
		c.FaultProb = 0.02
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.SimCycles == 0 {
		c.SimCycles = 3
	}
	return c
}

// ClusterReport is one multi-node campaign's outcome. As with Report,
// Violations is the only field that can fail a campaign.
type ClusterReport struct {
	Seed     int64
	Requests int
	Done     int
	Degraded int
	// FailedInjected counts jobs failed or canceled by an injected fault
	// point — attributable, designed outcomes.
	FailedInjected int
	// Rejected counts submissions that errored at the client (shed,
	// queue-full, a poll cut off by a kill, retry budget exhausted).
	Rejected int
	// Kills and Restarts count the replica lifecycle events injected.
	Kills, Restarts int
	// Coalesced sums the replicas' in-flight-table attachments (jobs
	// that rode an identical job's DP run) observed by the end of the
	// campaign.
	Coalesced int64
	// PeerHits counts jobs a replica answered from a sibling's result
	// cache instead of mapping (the shared cache tier working).
	PeerHits int64
	// Failovers counts router submissions that had to move past the
	// preferred replica.
	Failovers int64
	// Recovered and Readmitted count jobs the restarted victim rebuilt
	// from its journal: terminal jobs re-created in place and unfinished
	// jobs re-enqueued under their original ids.
	Recovered, Readmitted int64
	// WarmHits is the victim's durable-store hit count right after the
	// restart: > 0 means the replica came back warm from disk instead of
	// cold.
	WarmHits int64
	// StoreCorrupt sums torn or corrupt durable-store records the fleet
	// detected and quarantined (fault-injected tears land here).
	StoreCorrupt int64
	// Violations are silent-corruption findings: a done response whose
	// bytes differ from a clean local re-derivation, an oracle failure,
	// or an unexplained job failure. Empty means the campaign passed.
	Violations []string
}

func (r *ClusterReport) String() string {
	return fmt.Sprintf("cluster chaos seed=%d: %d requests over %d kills/%d restarts, %d done (%d degraded), %d failed-by-fault, %d rejected, %d coalesced, %d peer-cache hits, %d failovers, %d recovered, %d readmitted, %d warm hits, %d corrupt quarantined, %d violations",
		r.Seed, r.Requests, r.Kills, r.Restarts, r.Done, r.Degraded,
		r.FailedInjected, r.Rejected, r.Coalesced, r.PeerHits, r.Failovers,
		r.Recovered, r.Readmitted, r.WarmHits, r.StoreCorrupt, len(r.Violations))
}

// clusterNode is one replica's lifecycle handle: service, listener and
// HTTP server, restartable on a fixed address so the router's replica
// set stays valid across the kill.
type clusterNode struct {
	idx      int
	addr     string // fixed after the first bind
	url      string
	peers    []string
	stateDir string // fixed across restarts: the replica's durable state
	svc      *service.Server
	httpSrv  *http.Server
	alive    bool
}

// start (re)creates the node's service on the node's address. The state
// dir survives the kill, so a restarted replica recovers its journal
// and durable result store — warm cache, re-admitted jobs — exactly as
// a production restart with -state-dir would.
func (n *clusterNode) start(cfg ClusterConfig, rng *rand.Rand) error {
	reg := armFaults(cfg.Seed^int64(n.idx), rng, cfg.FaultProb, cfg.Latency)
	n.svc = service.New(service.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		JobRetention: time.Minute,
		Faults:       reg,
		Peers:        n.peers,
		PeerTimeout:  100 * time.Millisecond,
		StateDir:     n.stateDir,
	})
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return fmt.Errorf("replica %d rebind %s: %w", n.idx, n.addr, err)
	}
	n.httpSrv = &http.Server{Handler: n.svc.Handler()}
	go n.httpSrv.Serve(ln)
	n.alive = true
	return nil
}

// kill drops the node crash-style: the listener and every open
// connection close, then Abort stops the service without journal
// flushes or graceful drain — in-flight jobs die with only their
// accepted/running records on disk. In-flight requests see transport
// errors; the journal, not the shutdown path, is what makes the later
// restart correct.
func (n *clusterNode) kill() {
	n.httpSrv.Close()
	n.svc.Abort()
	n.alive = false
}

// RunCluster executes one multi-node campaign: router + replicas in
// process, a seeded request stream with identical-submission bursts (the
// coalescing workload), one replica killed mid-campaign and restarted
// later. Every JobDone response — whether mapped, cache-served,
// peer-cache-served, coalesced or failed over — is re-derived locally
// fault-free and byte-compared. The returned error covers harness
// failures; verification findings go to ClusterReport.Violations.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &ClusterReport{Seed: cfg.Seed}

	// Every replica gets a state dir under one campaign-scoped root; the
	// dirs outlive kills so restarts are warm.
	stateRoot, err := os.MkdirTemp("", "soichaos-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)

	// Bind every replica's listener first so each service can be created
	// knowing its siblings' URLs (the shared cache tier's peer list).
	listeners := make([]net.Listener, cfg.Replicas)
	nodes := make([]*clusterNode, cfg.Replicas)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		nodes[i] = &clusterNode{
			idx:      i,
			addr:     ln.Addr().String(),
			url:      "http://" + ln.Addr().String(),
			stateDir: filepath.Join(stateRoot, fmt.Sprintf("replica%d", i)),
		}
	}
	urls := make([]string, cfg.Replicas)
	for i, n := range nodes {
		urls[i] = n.url
	}
	for i, n := range nodes {
		for j, u := range urls {
			if j != i {
				n.peers = append(n.peers, u)
			}
		}
		reg := armFaults(cfg.Seed^int64(n.idx), rng, cfg.FaultProb, cfg.Latency)
		n.svc = service.New(service.Config{
			Workers:      cfg.Workers,
			QueueDepth:   cfg.QueueDepth,
			JobRetention: time.Minute,
			Faults:       reg,
			Peers:        n.peers,
			PeerTimeout:  100 * time.Millisecond,
			StateDir:     n.stateDir,
		})
		n.httpSrv = &http.Server{Handler: n.svc.Handler()}
		go n.httpSrv.Serve(listeners[i])
		n.alive = true
	}
	defer func() {
		for _, n := range nodes {
			if n.alive {
				n.kill()
			}
		}
	}()

	rt, err := cluster.New(cluster.Config{
		Replicas:          urls,
		ReplicationFactor: cfg.ReplicationFactor,
		ProbeInterval:     20 * time.Millisecond,
		Client: client.Config{
			MaxAttempts: 3,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Budget:      2 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	routerSrv := &http.Server{Handler: rt.Handler()}
	go routerSrv.Serve(rln)
	routerURL := "http://" + rln.Addr().String()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		routerSrv.Shutdown(sctx)
	}()

	cli := client.New(client.Config{
		BaseURL:   routerURL,
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Budget:    2 * time.Second,
	})

	victim := nodes[rng.Intn(len(nodes))]
	killAt, restartAt := cfg.Requests/3, 2*cfg.Requests/3
	pool := workloads()
	start := time.Now()

	// classify folds one submission outcome into the report. Job
	// failures must be attributable to an injected fault or to the kill
	// (a canceled job on the dying replica); anything else is organic.
	var mu sync.Mutex
	classify := func(i int, wl workload, req *service.MapRequest, v *service.JobView, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			rep.Rejected++
			return
		}
		switch v.State {
		case service.JobDone:
			if msg := verifyDone(req, wl, v, cfg.SimCycles, cfg.Seed^int64(i)); msg != "" {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("request %d (%s/%s): %s", i, wl.label, v.Algorithm, msg))
				return
			}
			rep.Done++
			if v.Result.Degraded {
				rep.Degraded++
			}
		case service.JobFailed, service.JobCanceled:
			if !injectedFailure(v.Error) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("request %d (%s/%s): organic failure %q", i, wl.label, v.Algorithm, v.Error))
				return
			}
			rep.FailedInjected++
		default:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("request %d: non-terminal state %s from a synchronous call", i, v.State))
		}
	}

	// sweep issues one fixed default-options submission per workload ×
	// algorithm. Run once while the victim is down and once after its
	// restart, it exercises the shared cache tier deterministically: keys
	// whose ring primary is the victim are computed by a sibling during
	// the outage, so the restarted (cold) victim must answer the repeat
	// from the sibling's cache — a peer hit — instead of remapping.
	sweep := func(tag int) {
		for wi, wl := range pool {
			for ai, algo := range algos {
				req := wl.req
				req.Algorithm = algo
				rep.Requests++
				v, err := cli.Map(ctx, &req)
				classify(tag+wi*len(algos)+ai, wl, &req, v, err)
			}
		}
	}

	for i := 0; i < cfg.Requests; i++ {
		if ctx.Err() != nil {
			break
		}
		if cfg.Deadline > 0 && time.Since(start) > cfg.Deadline {
			break
		}
		// >= not ==: a burst can jump the loop index past the exact mark.
		if rep.Kills == 0 && i >= killAt {
			victim.kill()
			rep.Kills++
			sweep(-1000)
		}
		if rep.Restarts == 0 && i >= restartAt {
			if err := victim.start(cfg, rng); err != nil {
				return nil, err
			}
			rep.Restarts++
			// Wait for the prober to readmit the restarted replica:
			// until then the router prefers its warm siblings and the
			// sweep would never reach the restarted victim.
			readmit := time.Now().Add(5 * time.Second)
			for rt.ReadyReplicas() < len(nodes) && time.Now().Before(readmit) {
				time.Sleep(5 * time.Millisecond)
			}
			// The victim restarted over its surviving state dir, so it
			// must come back warm: journal recovery re-serves terminal
			// jobs from the durable store (counted as store hits) and
			// re-admits the jobs the crash cut down mid-flight.
			rep.Recovered = victim.svc.Counter("jobs_recovered")
			rep.Readmitted = victim.svc.Counter("jobs_readmitted")
			rep.WarmHits = victim.svc.Counter("store_hits")
			if rep.WarmHits == 0 {
				rep.Violations = append(rep.Violations,
					"restarted replica came back cold: no durable-store hits during journal recovery")
			}
			verifyReadmitted(ctx, victim, rep, cfg)
			sweep(-2000)
		}

		wl, req := randRequest(rng, pool)
		if rng.Intn(8) == 0 {
			// Identical-submission burst: the coalescing workload. The
			// riders share a key, so the router sends them to one replica,
			// whose in-flight table can collapse them into one DP run.
			burst := 2 + rng.Intn(3)
			if rem := cfg.Requests - i; burst > rem {
				burst = rem
			}
			var wg sync.WaitGroup
			for b := 0; b < burst; b++ {
				rep.Requests++
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, err := cli.Map(ctx, &req)
					classify(i, wl, &req, v, err)
				}(i + b)
			}
			i += burst - 1 // the loop's own increment covers the last rider
			wg.Wait()
			continue
		}
		rep.Requests++
		var v *service.JobView
		if rng.Intn(4) == 0 {
			v, err = cli.MapWait(ctx, &req, 5*time.Millisecond)
		} else {
			v, err = cli.Map(ctx, &req)
		}
		if err != nil && ctx.Err() != nil {
			break
		}
		classify(i, wl, &req, v, err)
	}

	// The router and every live replica must have survived the campaign.
	checkHealth := func(url, who string) {
		resp, err := http.Get(url + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s healthz after campaign: %v (err %v)", who, resp, err))
		}
		if resp != nil {
			resp.Body.Close()
		}
	}
	checkHealth(routerURL, "router")
	rep.Failovers = rt.Counter("routed_failovers")
	for _, n := range nodes {
		if !n.alive {
			continue
		}
		checkHealth(n.url, fmt.Sprintf("replica %d", n.idx))
		rep.Coalesced += n.svc.Counter("jobs_coalesced")
		rep.PeerHits += n.svc.Counter("cluster_cache_peer_hits")
		rep.StoreCorrupt += n.svc.Counter("store_corrupt")
	}
	return rep, nil
}

// verifyReadmitted checks every job the restarted victim re-admitted
// from its journal: each must reach a terminal state under its original
// id (a restart must never 404 a poller), and a completed re-admission
// must byte-compare against a clean sequential re-derivation exactly
// like any live response. Failures are legitimate only when an injected
// fault or the re-admission path itself (queue full on boot) explains
// them.
func verifyReadmitted(ctx context.Context, victim *clusterNode, rep *ClusterReport, cfg ClusterConfig) {
	for id, req := range victim.svc.RecoveredJobs() {
		wl, ok := workloadFromRequest(req)
		if !ok {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("readmitted %s: journaled request matches no campaign workload", id))
			continue
		}
		v, err := pollJob(ctx, victim.url, id, 10*time.Second)
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("readmitted %s (%s/%s): %v", id, wl.label, req.Algorithm, err))
			continue
		}
		switch v.State {
		case service.JobDone:
			if msg := verifyDone(req, wl, v, cfg.SimCycles, cfg.Seed); msg != "" {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("readmitted %s (%s/%s): %s", id, wl.label, req.Algorithm, msg))
			}
		case service.JobFailed, service.JobCanceled:
			if !injectedFailure(v.Error) && !strings.Contains(v.Error, "not re-admitted") {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("readmitted %s (%s/%s): organic failure %q", id, wl.label, req.Algorithm, v.Error))
			}
		default:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("readmitted %s: still %s after the poll deadline", id, v.State))
		}
	}
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
