package main

import (
	"bytes"
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
	"sync/atomic"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/canon"
	"soidomino/internal/client"
	"soidomino/internal/cluster"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/store"
	"soidomino/internal/strash"
	"soidomino/internal/verify"
)

const (
	fleetReplicas = 2
	// replayOps bounds the ops whose inputs the traced run replays
	// through the front-end, encode and store layers one call at a time.
	replayOps = 128
)

// fleet-hit's working set of 16 circuits, in three latency classes
// below the XOR-heavy pair: hitLight circuits answer faster than
// hitMedian, hitHeavy ones slower. A pass holds each light circuit once,
// hitMedian as often and each heavy circuit twice, so about as many ops
// are cheaper than hitMedian as dearer and p50 falls inside hitMedian's
// own latency class.
var (
	hitLight  = []string{"frg1", "t481", "c8", "b9", "c432", "x-csa16", "dalu", "apex7", "x1"}
	hitMedian = "c880"
	hitHeavy  = []string{"i6", "apex6", "k2", "des"}
	// hitTail holds the dearest circuits by far (their BLIF is a wide XOR
	// cover). Each window holds exactly 4×tailBeyond of their ops, so the
	// tail sample, tailBeyond from the top, sits inside their class.
	hitTail = []string{"c499", "c1355"}
)

// fleet-miss's two fixed I/O and gate profiles. Each window holds exactly
// missLarge large networks, about three times dearer than the rest, so
// the tail sample, tailBeyond from the top, is their class's median
// instead of whichever few ops the host or the runtime happened to slow.
const missLarge = 2 * tailBeyond

var (
	synthProfile = bench.SynthParams{Inputs: 32, Outputs: 12, Gates: 200}
	synthLarge   = bench.SynthParams{Inputs: 32, Outputs: 12, Gates: 1200}
)

// fleetInput is one network to submit as inline BLIF.
type fleetInput struct {
	net *logic.Network // as generated: the equivalence reference
	req service.MapRequest
}

func newInput(n *logic.Network) (*fleetInput, error) {
	var b bytes.Buffer
	if err := blif.Write(&b, n); err != nil {
		return nil, err
	}
	return &fleetInput{net: n, req: service.MapRequest{BLIF: b.String()}}, nil
}

// fleet is an in-process soirouter in front of soimapd replicas, each on
// its own loopback listener. The benchmark wraps every handler and the
// replicas' peer-lookup transport so a traced window can record spans
// around them; untraced, the wrappers only load a nil pointer.
type fleet struct {
	replicas  []*service.Server
	servers   []*http.Server
	router    *cluster.Router
	routerURL string
	transport *http.Transport
	serving   sync.WaitGroup
	stateRoot string
	rec       atomic.Pointer[recorder]
	retries   atomic.Int64
}

func bootFleet(stateRoot string) (*fleet, error) {
	f := &fleet{transport: &http.Transport{MaxIdleConnsPerHost: 8}, stateRoot: stateRoot}
	lns := make([]net.Listener, fleetReplicas+1)
	urls := make([]string, fleetReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		if i < fleetReplicas {
			urls[i] = "http://" + ln.Addr().String()
		}
	}
	httpc := &http.Client{Transport: f.transport}
	for i := 0; i < fleetReplicas; i++ {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := service.Config{
			Workers:        1,
			Peers:          peers,
			PeerHTTPClient: &http.Client{Transport: timedTransport{f, "service.peer_lookup"}},
			ReplicaName:    fmt.Sprintf("replica%d", i),
		}
		if stateRoot != "" {
			cfg.StateDir = filepath.Join(stateRoot, cfg.ReplicaName)
		}
		svc := service.New(cfg)
		f.replicas = append(f.replicas, svc)
		f.serve(lns[i], f.wrap(svc.Handler(), map[string]string{
			"POST /v1/map":  "service.handle",
			"GET /v1/cache": "service.cache_serve",
		}))
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:      urls,
		ProbeInterval: -1, // no background probes inside the timed windows
		Client:        client.Config{HTTPClient: httpc, Sleep: f.sleep},
	})
	if err != nil {
		lns[fleetReplicas].Close()
		f.close()
		return nil, err
	}
	f.router = rt
	f.routerURL = "http://" + lns[fleetReplicas].Addr().String()
	f.serve(lns[fleetReplicas], f.wrap(rt.Handler(), map[string]string{"POST /v1/map": "cluster.route"}))
	return f, nil
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

// close stops the listeners, drains the replicas and removes their state.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.Shutdown(context.Background())
	}
	f.transport.CloseIdleConnections()
	if f.stateRoot != "" {
		os.RemoveAll(f.stateRoot)
	}
}

// client returns a benchmark client of the router. It makes one attempt
// per op, so a refused op (429) counts as failed instead of being
// retried away; the router's own retries go through f.sleep and are
// counted.
func (f *fleet) client() *client.Client {
	return client.New(client.Config{
		BaseURL:     f.routerURL,
		MaxAttempts: 1,
		HTTPClient:  &http.Client{Transport: f.transport},
		Sleep:       f.sleep,
	})
}

func (f *fleet) sleep(ctx context.Context, d time.Duration) error {
	f.retries.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// counter sums a service counter over the replicas.
func (f *fleet) counter(name string) int64 {
	var n int64
	for _, r := range f.replicas {
		n += r.Counter(name)
	}
	return n
}

// wrap records a span named names["METHOD /path"] around each matching
// request while a recorder is installed. The span's trace is the
// request id the benchmark client set, which the router forwards to the
// replica and the replica to its peer lookups.
func (f *fleet) wrap(h http.Handler, names map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := f.rec.Load()
		name := names[r.Method+" "+r.URL.Path]
		if rec == nil || name == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(r.Header.Get("X-Request-ID"), name, t0, time.Now())
	})
}

type timedTransport struct {
	f    *fleet
	name string
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := t.f.rec.Load()
	if rec == nil {
		return t.f.transport.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := t.f.transport.RoundTrip(r)
	rec.add(r.Header.Get("X-Request-ID"), t.name, t0, time.Now())
	return resp, err
}

type fleetEnv struct {
	miss   bool
	inputs [][]*fleetInput // [window][op]
	views  [][]*service.JobView
	f      *fleet
	cli    *client.Client
	// classes names each op's input for the latency-class report.
	classes []string
	// base holds the replica counters at the end of set-up, so the mix
	// guards see only the timed windows.
	base map[string]int64
}

var guardedCounters = []string{"cache_hits", "cluster_cache_peer_hits", "store_hits", "jobs_done"}

// hitSequence is fleet-hit's op sequence: seeded passes over the working
// set with the tail circuits' ops inserted at seeded positions.
func hitSequence(seed int64, seconds int) []string {
	var pass, tail []string
	for _, c := range hitLight {
		pass = append(pass, c, hitMedian)
	}
	for _, c := range hitHeavy {
		pass = append(pass, c, c)
	}
	for k := 0; k < 4*tailBeyond; k++ {
		tail = append(tail, hitTail[k%len(hitTail)])
	}
	return withTail(opSequence(pass, seed, passes(seconds, 3.4)), tail, seed)
}

func setupFleetHit(seed int64, seconds, windows int) (env, error) {
	names := hitSequence(seed, seconds)
	byName := map[string]*fleetInput{}
	var distinct []*fleetInput
	for _, c := range names {
		if byName[c] != nil {
			continue
		}
		in, err := newInput(bench.MustBuild(c))
		if err != nil {
			return nil, err
		}
		byName[c] = in
		distinct = append(distinct, in)
	}
	e := &fleetEnv{classes: names}
	seq := make([]*fleetInput, len(names))
	for i, c := range names {
		seq[i] = byName[c]
	}
	for w := 0; w < windows; w++ {
		e.inputs = append(e.inputs, seq)
	}
	f, err := bootFleet("")
	if err != nil {
		return nil, err
	}
	e.start(f)
	// Warm fill: map every circuit once, so each timed op is an LRU hit
	// on the replica the router prefers for it.
	for _, in := range distinct {
		if _, err := e.cli.Map(context.Background(), &in.req); err != nil {
			f.close()
			return nil, fmt.Errorf("warm fill %s: %w", in.net.Name, err)
		}
	}
	e.base = e.counters()
	return e, nil
}

// withTail inserts the ops of tail at seeded positions of seq.
func withTail(seq, tail []string, seed int64) []string {
	rng := rand.New(rand.NewSource(^seed))
	for _, c := range tail {
		i := rng.Intn(len(seq) + 1)
		seq = append(seq[:i], append([]string{c}, seq[i:]...)...)
	}
	return seq
}

// missWarmOps is how many distinct networks, outside every window, warm
// the fleet's code paths and connections before the timed windows.
const missWarmOps = 64

// missNetwork is network k of fleet-miss's pool, large or not. It
// depends on k alone, so every run maps the same networks and
// t_total/t_disch repeat exactly; the seed only orders them.
func missNetwork(k int, large bool) (*fleetInput, error) {
	p, name := synthProfile, "syn%d"
	if large {
		p, name = synthLarge, "synl%d"
	}
	p.Name, p.Seed = fmt.Sprintf(name, k), int64(k)
	return newInput(bench.Synthetic(p))
}

// missInputs returns, per window, n distinct networks plus missLarge
// large ones in seeded order: window w submits pool networks
// [w·n, (w+1)·n) and large networks [w·missLarge, (w+1)·missLarge).
func missInputs(seed int64, n, windows int) ([][]*fleetInput, error) {
	rng := rand.New(rand.NewSource(seed))
	large := missLarge
	var out [][]*fleetInput
	for w := 0; w < windows; w++ {
		ins := make([]*fleetInput, n+large)
		for i, k := range rng.Perm(n + large) {
			var err error
			if k < n {
				ins[i], err = missNetwork(w*n+k, false)
			} else {
				ins[i], err = missNetwork(w*large+k-n, true)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, ins)
	}
	return out, nil
}

func setupFleetMiss(seed int64, seconds, windows int) (env, error) {
	n := passes(seconds, 114)
	inputs, err := missInputs(seed, n, windows)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{miss: true, inputs: inputs}
	for _, in := range inputs[0] {
		e.classes = append(e.classes, strings.TrimRight(in.net.Name, "0123456789"))
	}
	state, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(state)
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	e.start(f)
	for i := 0; i < missWarmOps; i++ {
		in, err := missNetwork(windows*n+i, false)
		if err == nil {
			_, err = e.cli.Map(context.Background(), &in.req)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	e.base = e.counters()
	return e, nil
}

func (e *fleetEnv) start(f *fleet) {
	e.f = f
	e.cli = f.client()
	for _, ins := range e.inputs {
		e.views = append(e.views, make([]*service.JobView, len(ins)))
	}
}

func (e *fleetEnv) counters() map[string]int64 {
	m := map[string]int64{}
	for _, c := range guardedCounters {
		m[c] = e.f.counter(c)
	}
	return m
}

func (e *fleetEnv) ops() int             { return len(e.inputs[0]) }
func (e *fleetEnv) opClass(i int) string { return e.classes[i] }
func (e *fleetEnv) close()               { e.f.close() }

func (e *fleetEnv) op(ctx context.Context, w, i int, rec *recorder) error {
	e.f.rec.Store(rec) // nil outside the traced window
	v, err := e.cli.Map(obs.WithRequestID(ctx, traceID(w, i)), &e.inputs[w][i].req)
	if err != nil {
		return err
	}
	if v.State != service.JobDone || v.Result == nil {
		return fmt.Errorf("op %d: job %s ended %s: %s", i, v.ID, v.State, v.Error)
	}
	e.views[w][i] = v
	return nil
}

// derived is an in-process re-derivation of one fleet request, mapped
// the way a replica maps it (stats and alloc are only meaningful when
// nothing else runs).
type derived struct {
	pipe  *report.Pipeline
	res   *mapper.Result
	bytes []byte
	stats obs.Stats
	alloc uint64
}

func mapRequest(req *service.MapRequest) (*derived, error) {
	d := &derived{pipe: &report.Pipeline{}}
	src, err := blif.ParseString(req.BLIF)
	if err != nil {
		return d, err
	}
	d.pipe.Name = src.Name
	opt, err := service.OptionsFromRequest(req.Options)
	if err != nil {
		return d, err
	}
	opt.Workers = 1
	ctx := obs.WithStats(context.Background(), &d.stats)
	p, err := report.PrepareNetworkContext(ctx, src)
	if err != nil {
		return d, err
	}
	d.pipe = p
	a0 := allocBytes()
	d.res, err = mapper.SOIDominoMapContext(ctx, d.pipe.Unate, opt)
	d.alloc = allocBytes() - a0
	if err != nil {
		return d, err
	}
	if err := d.res.Audit(); err != nil {
		return d, fmt.Errorf("audit: %w", err)
	}
	d.bytes, err = service.EncodeJSON(service.NewMapResult(src.Name, d.pipe, d.res))
	return d, err
}

func (e *fleetEnv) check(windows int) (quality, error) {
	var q quality
	// Mix guards: the replicas' own counters over the timed windows.
	ops := int64(0)
	for w := 0; w < windows; w++ {
		ops += int64(len(e.inputs[w]))
	}
	now := e.counters()
	delta := func(c string) int64 { return now[c] - e.base[c] }
	if e.miss {
		for _, c := range []string{"cache_hits", "cluster_cache_peer_hits", "store_hits"} {
			if delta(c) != 0 {
				return q, fmt.Errorf("mix guard: %d %s during the miss windows", delta(c), c)
			}
		}
	} else if delta("cache_hits") != ops {
		return q, fmt.Errorf("mix guard: %d LRU hits for %d hit ops", delta("cache_hits"), ops)
	}
	if delta("jobs_done") != ops {
		return q, fmt.Errorf("%d jobs done for %d ops", delta("jobs_done"), ops)
	}

	type opRef struct{ w, i int }
	var answered []opRef
	var distinct []*fleetInput
	idx := map[*fleetInput]int{}
	for w := 0; w < windows; w++ {
		for i, v := range e.views[w] {
			if v == nil {
				continue // a failed op, already counted
			}
			a := v.Attribution
			switch {
			case a == nil:
				return q, fmt.Errorf("window %d op %d: no attribution", w, i)
			case e.miss && (v.Cached || v.Coalesced || a.CacheTier != service.TierMiss):
				return q, fmt.Errorf("mix guard: window %d op %d answered from tier %q (cached %v)", w, i, a.CacheTier, v.Cached)
			case !e.miss && (!v.Cached || a.CacheTier != service.TierLocal):
				return q, fmt.Errorf("mix guard: window %d op %d answered from tier %q, not the LRU", w, i, a.CacheTier)
			}
			answered = append(answered, opRef{w, i})
			if in := e.inputs[w][i]; idx[in] == 0 {
				distinct = append(distinct, in)
				idx[in] = len(distinct)
			}
		}
	}
	// Re-derive every distinct request in process, audit it and check it
	// against the generated network; then every answer must encode to its
	// re-derivation's bytes.
	refs := make([]*derived, len(distinct))
	err := forEach(len(distinct), func(k int) error {
		d, err := mapRequest(&distinct[k].req)
		if err == nil {
			err = verify.MustBeEquivalent(distinct[k].net, d.res, verify.DefaultOptions())
		}
		if err != nil {
			return fmt.Errorf("re-derivation of %s: %w", d.pipe.Name, err)
		}
		refs[k] = d
		return nil
	})
	if err != nil {
		return q, err
	}
	err = forEach(len(answered), func(k int) error {
		o := answered[k]
		got, err := service.EncodeJSON(e.views[o.w][o.i].Result)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, refs[idx[e.inputs[o.w][o.i]]-1].bytes) {
			return fmt.Errorf("window %d op %d: served result differs from the in-process re-derivation", o.w, o.i)
		}
		return nil
	})
	for _, d := range refs {
		q.TTotal += d.res.Stats.TTotal
		q.TDisch += d.res.Stats.TDisch
	}
	return q, err
}

func (e *fleetEnv) layers(w int, rows []layerRow, m map[string]float64) error {
	views := e.views[w]
	ops := float64(len(views))
	m["cluster.route_ms"] = msOf(row(rows, "cluster.route").Self) / ops
	if r := row(rows, "service.handle"); r.Count > 0 {
		m["service.handle_ms"] = msOf(r.Total) / float64(r.Count)
	}
	if r := row(rows, "service.peer_lookup"); r.Count > 0 {
		m["service.peer_lookup_ms"] = msOf(r.Total) / float64(r.Count)
	}
	hits := 0
	for _, v := range views {
		if v == nil || v.Attribution == nil {
			continue
		}
		a := v.Attribution
		if a.CacheTier == service.TierLocal {
			hits++
		}
		m["service.queue_wait_ms"] += a.QueueWaitMS / ops
		m["service.run_ms"] += a.WallMS / ops
		if e.miss {
			m["decompose.run_ms"] += a.PhasesMS["decompose"] / ops
			m["unate.run_ms"] += a.PhasesMS["unate"] / ops
			m["mapper.dp_ms"] += a.PhasesMS["dp"] / ops
			m["mapper.traceback_ms"] += a.PhasesMS["traceback"] / ops
			m["mapper.map_ms"] += (a.PhasesMS["dp"] + a.PhasesMS["traceback"]) / ops
			m["mapper.audit_ms"] += a.PhasesMS["audit"] / ops
			m["mapper.tuples_generated"] += float64(a.DPTuples) / ops
		}
	}
	m["cache.hit_frac"] = float64(hits) / ops
	m["client.retries"] = float64(e.f.retries.Load())
	m["store.write_errors"] = float64(e.f.counter("store_write_errors"))
	return e.replay(w, m)
}

// replay times the front-end, encode and (with persistence on) store
// layers one call at a time on the first replayOps inputs of window w:
// the per-call cost of the work each op repeats at the router and the
// replica.
func (e *fleetEnv) replay(w int, m map[string]float64) error {
	n := min(replayOps, len(e.inputs[w]))
	keys := make([]string, n)
	vals := make([][]byte, n)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		req, v := &e.inputs[w][i].req, e.views[w][i]
		if v == nil {
			return fmt.Errorf("replay: window %d op %d failed", w, i)
		}
		t0 := time.Now()
		src, err := blif.ParseString(req.BLIF)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sr := strash.Run(src)
		t2 := time.Now()
		canon.Hash(sr.Network)
		t3 := time.Now()
		if keys[i], err = service.RequestKey(ctx, req); err != nil {
			return err
		}
		t4 := time.Now()
		if vals[i], err = service.EncodeJSON(v.Result); err != nil {
			return err
		}
		t5 := time.Now()
		m["blif.parse_ms"] += msOf(t1.Sub(t0)) / float64(n)
		m["strash.run_ms"] += msOf(t2.Sub(t1)) / float64(n)
		m["strash.nodes_removed"] += float64(src.Len()-sr.Network.Len()) / float64(n)
		m["canon.hash_ms"] += msOf(t3.Sub(t2)) / float64(n)
		m["service.key_ms"] += msOf(t4.Sub(t3)) / float64(n)
		m["service.encode_ms"] += msOf(t5.Sub(t4)) / float64(n)
		m["service.encode_kb"] += float64(len(vals[i])) / 1024 / float64(n)
	}
	if !e.miss {
		return nil
	}
	// The DP's counters and allocation, from the same inputs mapped in
	// process with nothing else running.
	for i := 0; i < n; i++ {
		d, err := mapRequest(&e.inputs[w][i].req)
		if err != nil {
			return err
		}
		m["mapper.tuples_kept"] += float64(d.stats.TuplesKept) / float64(n)
		m["mapper.alloc_mb"] += float64(d.alloc) / 1e6 / float64(n)
		m["unate.duplicated"] += float64(d.pipe.Duplicated) / float64(n)
		m["mapper.frontier_high_water"] = max(m["mapper.frontier_high_water"], float64(d.stats.FrontierHighWater))
	}
	return replayStore(keys, vals, e.inputs[w][:n], m)
}

// replayStore writes the replayed results through a scratch result
// store and journal the way a replica persists a finished job: one
// fsynced Put and Get per result, and one accepted record per job under
// each journal fsync policy.
func replayStore(keys []string, vals [][]byte, ins []*fleetInput, m map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	rs, _, err := store.OpenResults(filepath.Join(dir, "results"), true)
	if err != nil {
		return err
	}
	n := float64(len(keys))
	for i, k := range keys {
		t0 := time.Now()
		if err := rs.Put(ctx, k, vals[i]); err != nil {
			return err
		}
		m["store.put_ms"] += msOf(time.Since(t0)) / n
	}
	for i, k := range keys {
		t0 := time.Now()
		got, err := rs.Get(k)
		m["store.get_ms"] += msOf(time.Since(t0)) / n
		if err != nil {
			return err
		}
		if !bytes.Equal(got, vals[i]) {
			return fmt.Errorf("store replay: entry %d read back differently", i)
		}
	}
	for _, pol := range []store.SyncPolicy{store.SyncAlways, store.SyncInterval, store.SyncOff} {
		jdir := filepath.Join(dir, "journal-"+pol.String())
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return err
		}
		j, _, err := store.OpenJournal(jdir, pol)
		if err != nil {
			return err
		}
		name := "journal.append_ms." + pol.String()
		for i, k := range keys {
			req, err := json.Marshal(&ins[i].req)
			if err != nil {
				j.Close()
				return err
			}
			rec := store.JobRecord{Type: store.RecAccepted, ID: fmt.Sprintf("j%d", i+1), Key: k, Request: req, UnixMS: time.Now().UnixMilli()}
			t0 := time.Now()
			if err := j.Append(ctx, rec); err != nil {
				j.Close()
				return err
			}
			m[name] += msOf(time.Since(t0)) / n
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	return nil
}
