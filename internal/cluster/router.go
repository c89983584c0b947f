package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/obs"
	"soidomino/internal/service"
	"soidomino/internal/service/cache"
)

// memoEntries bounds the router's key memo. An entry is a 32-byte digest
// and a key string (about 160 bytes), so a full memo holds about a
// megabyte.
const memoEntries = 4096

// Config shapes a Router. The zero value of any field selects the
// documented default.
type Config struct {
	// Replicas are the base URLs of the soimapd instances, e.g.
	// "http://10.0.0.1:8347". At least one is required.
	Replicas []string
	// ReplicationFactor is how many preferred replicas serve each key
	// before last-resort failover widens to the rest (default 2, capped
	// at len(Replicas)).
	ReplicationFactor int
	// Client is the template for the per-replica retrying clients;
	// BaseURL is overwritten per replica.
	Client client.Config
	// ProbeInterval spaces the /readyz probes of each replica (default
	// 2s; negative disables probing — replicas then stay ready unless a
	// transport failure marks them unready).
	ProbeInterval time.Duration
	// MaxBodyBytes bounds a submission body (default 16MiB, matching the
	// replicas' own default).
	MaxBodyBytes int64
	// TraceSample enables local trace sampling at the router: every
	// TraceSample-th submission without a sampled incoming traceparent
	// header starts a fresh sampled trace spanning the router and the
	// replicas it touches. 0 (the default) disables local sampling;
	// incoming sampled traceparent headers are always honored. Tracing
	// never affects routing or cache keys (DESIGN.md §14).
	TraceSample int
	// TraceMax bounds the distinct traces retained by the router's trace
	// hub (FIFO eviction; default 64).
	TraceMax int
	// Logger receives routing decisions and failovers; nil disables.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// replica is one routed-to soimapd instance and its health view.
type replica struct {
	idx    int
	url    string
	client *client.Client
	probe  *http.Client
	// ready starts true and tracks the last /readyz probe; a transport
	// failure while routing flips it false without waiting for the
	// prober ("passive unready"), so a crashed replica stops receiving
	// traffic after one failed attempt.
	ready atomic.Bool
}

// Router is the cluster front-end: it exposes the soimapd API surface
// and fans requests out to replicas by consistent hash of the request's
// cache key (service.RequestKey). Create with New, serve Handler, stop
// the prober with Close.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	byURL    map[string]*replica
	mux      *http.ServeMux
	logger   *slog.Logger
	start    time.Time
	reqSeq   atomic.Int64
	traceSeq atomic.Int64
	hub      *obs.TraceHub
	// memo maps sha256 of a submission body to the key derived from it,
	// so a byte-identical resubmission routes without decoding or keying
	// its body again. It is sound because the key is a pure function of
	// the body bytes: the router has no fault registry and no option that
	// changes how it keys. It holds digests and keys, never bodies.
	memo *cache.LRU[[32]byte, string]
	// bodyKey decodes and keys a body the memo does not hold (tests
	// count its calls).
	bodyKey func(ctx context.Context, body []byte) (string, error)

	mu       sync.Mutex
	counters map[string]int64
	routed   map[string]int64 // submissions answered, by replica URL
	// tiers counts answered submissions by replica URL and cache tier
	// (Attribution.CacheTier), the fleet-level rollup behind the
	// soirouter_answer_tier_total metric: per-replica hit rates for the
	// local, peer, miss and coalesced tiers without scrape-time fan-out.
	tiers map[tierKey]int64

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// routerCounters is the fixed counter vocabulary (sorted; /metrics
// renders them in this order).
var routerCounters = []string{
	"key_memo_hits",
	"requests",
	"requests_bad",
	"requests_failed",
	"routed_failovers",
	"upstream_errors",
}

var routerCounterHelp = map[string]string{
	"key_memo_hits":    "Map submissions routed under a memoised key, with no decode and no key derivation.",
	"requests":         "Map submissions received.",
	"requests_bad":     "Map submissions rejected before routing (malformed body, unknown circuit or options).",
	"requests_failed":  "Map submissions that failed on every candidate replica.",
	"routed_failovers": "Submissions that failed over past the preferred replica.",
	"upstream_errors":  "Individual replica attempts that failed (each may still fail over).",
}

// New builds a Router over cfg.Replicas and starts the readiness prober
// (unless ProbeInterval < 0).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica is required")
	}
	ring := NewRing(cfg.Replicas, DefaultVNodes)
	// The ring drops duplicate URLs, so the factor is capped by the
	// distinct replicas: route slices the preference list at it.
	cfg.ReplicationFactor = min(cfg.ReplicationFactor, len(ring.Replicas()))
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		byURL:     make(map[string]*replica, len(cfg.Replicas)),
		logger:    cfg.Logger,
		start:     time.Now(),
		counters:  make(map[string]int64),
		routed:    make(map[string]int64),
		tiers:     make(map[tierKey]int64),
		memo:      cache.New[[32]byte, string](memoEntries),
		bodyKey:   bodyKey,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.hub = obs.NewTraceHub("soirouter", cfg.TraceMax)
	probeTimeout := cfg.ProbeInterval
	if probeTimeout <= 0 || probeTimeout > time.Second {
		probeTimeout = time.Second
	}
	for i, u := range rt.ring.Replicas() {
		ccfg := cfg.Client
		ccfg.BaseURL = strings.TrimRight(u, "/")
		rep := &replica{
			idx:    i,
			url:    ccfg.BaseURL,
			client: client.New(ccfg),
			probe:  &http.Client{Timeout: probeTimeout},
		}
		rep.ready.Store(true)
		rt.replicas = append(rt.replicas, rep)
		rt.byURL[u] = rep
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", rt.handleMap)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/explain", rt.handleExplain)
	mux.HandleFunc("GET /v1/traces/{id}", rt.handleTraces)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux = mux

	if cfg.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.probeDone)
	}
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the readiness prober. The handler keeps working.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
	<-rt.probeDone
}

func (rt *Router) add(name string, n int64) {
	rt.mu.Lock()
	rt.counters[name] += n
	rt.mu.Unlock()
}

func (rt *Router) counter(name string) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.counters[name]
}

// Counter reads one router counter by name (see routerCounters; 0 for
// unknown names). Exported for harnesses that assert on routing
// behaviour — the chaos campaign checks coalescing and failover moved.
func (rt *Router) Counter(name string) int64 { return rt.counter(name) }

// ReadyReplicas reports how many replicas the router currently considers
// ready. Exported for harnesses that restart replicas and must wait for
// the prober to readmit them before asserting on routing.
func (rt *Router) ReadyReplicas() int { return rt.readyCount() }

func (rt *Router) addRouted(url string) {
	rt.mu.Lock()
	rt.routed[url]++
	rt.mu.Unlock()
}

// tierKey indexes the per-replica answer-tier rollup.
type tierKey struct {
	replica string
	tier    string
}

func (rt *Router) addTier(url, tier string) {
	if tier == "" {
		return
	}
	rt.mu.Lock()
	rt.tiers[tierKey{url, tier}]++
	rt.mu.Unlock()
}

// probeLoop polls every replica's /readyz on the configured cadence. A
// 200 restores readiness (recovering a passively-unreadied replica), a
// 503 or transport failure suspends it.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
		}
		for _, rep := range rt.replicas {
			ready := rt.probeOne(rep)
			if prev := rep.ready.Swap(ready); prev != ready && rt.logger != nil {
				rt.logger.Info("replica readiness changed",
					"replica", rep.url, "ready", ready)
			}
		}
	}
}

func (rt *Router) probeOne(rep *replica) bool {
	resp, err := rep.probe.Get(rep.url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markUnready is the passive path: a transport failure while routing
// takes the replica out of rotation immediately; the prober restores it.
func (rt *Router) markUnready(rep *replica) {
	if rep.ready.Swap(false) && rt.logger != nil {
		rt.logger.Warn("replica marked unready after transport failure", "replica", rep.url)
	}
}

// handleMap routes one submission. It does not coalesce: identical
// requests share a key, so the ring sends them to one replica, whose
// in-flight table runs them once while each keeps its own job id. The
// request goes out as the caller's bytes, the answer comes back as the
// replica's, status and bytes, with only the id rewritten.
//
// Observability: the router adopts a well-formed incoming X-Request-ID
// (or mints one) and forwards it to the replica, so both processes' log
// lines join on one id; a sampled incoming traceparent header (or, with
// none or an unsampled one, a local TraceSample decision; see
// obs.SampleRequest) starts a router span tree whose context flows
// through the replica attempts, making the replica's spans children of
// the routing spans in the stitched trace.
func (rt *Router) handleMap(w http.ResponseWriter, r *http.Request) {
	rt.add("requests", 1)
	reqID := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(reqID) {
		reqID = fmt.Sprintf("rr%06d", rt.reqSeq.Add(1))
	}
	ctx := obs.WithRequestID(r.Context(), reqID)
	w.Header().Set("X-Request-ID", reqID)

	tc := obs.SampleRequest(r.Header.Get(obs.TraceparentHeader), rt.cfg.TraceSample, &rt.traceSeq)
	var rootSpan *obs.ActiveSpan
	if tc.Sampled {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx, rootSpan = rt.hub.StartSpan(ctx, "router", "route POST /v1/map")
	}
	r = r.WithContext(ctx)

	body, status, err := service.ReadRequest(w, r, rt.cfg.MaxBodyBytes)
	if err != nil {
		rt.add("requests_bad", 1)
		rootSpan.End(obs.KV{Key: "bad_request", Val: 1})
		rt.errorJSON(w, status, err.Error())
		return
	}
	// The span times the whole key step: hash and memo lookup, and on a
	// miss the decode and RequestKey too.
	kStart := time.Now()
	key, hit, err := rt.keyFor(r.Context(), body)
	rt.hub.Record(obs.TraceContextFrom(r.Context()), "router", "request key", kStart, time.Since(kStart),
		obs.KV{Key: "memo", Val: boolInt(hit)})
	if err != nil {
		rt.add("requests_bad", 1)
		rootSpan.End(obs.KV{Key: "bad_request", Val: 1})
		rt.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}

	status, view, err := rt.route(r.Context(), key, body)
	if err != nil {
		rt.add("requests_failed", 1)
		rootSpan.End(obs.KV{Key: "failed", Val: 1})
		rt.relayError(w, err)
		return
	}
	rootSpan.End()
	relay(w, status, view)
}

// keyFor returns the routing key of a submission body and whether the
// memo held it. A memo hit neither decodes nor keys the body; a miss
// does both (bodyKey) and memoises the key only on success, so a
// rejected body is decoded, and rejected, every time it is sent.
func (rt *Router) keyFor(ctx context.Context, body []byte) (string, bool, error) {
	d := sha256.Sum256(body)
	if key, ok := rt.memo.Get(d); ok {
		rt.add("key_memo_hits", 1)
		return key, true, nil
	}
	key, err := rt.bodyKey(ctx, body)
	if err != nil {
		return "", false, err
	}
	rt.memo.Add(d, key)
	return key, false, nil
}

// bodyKey decodes a body under the replicas' decode rules and derives
// its key (service.RequestKey).
func bodyKey(ctx context.Context, body []byte) (string, error) {
	req, err := service.ParseRequest(body)
	if err != nil {
		return "", err
	}
	return service.RequestKey(ctx, req)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// route tries the key's preference list in order: the ReplicationFactor
// preferred replicas first (ready ones before passively-unreadied ones),
// then every remaining replica as a last resort. Each attempt forwards
// the same request bytes and the key (service.KeyHeader), so a replica
// hit neither parses nor strashes. It returns the answering replica's
// status and view bytes with the job id namespaced
// "<replica-index>.<id>" (service.RelayView), never decoded.
func (rt *Router) route(ctx context.Context, key string, body []byte) (int, []byte, error) {
	prefer := rt.ring.Prefer(key, len(rt.replicas))
	primary, rest := prefer[:rt.cfg.ReplicationFactor], prefer[rt.cfg.ReplicationFactor:]
	candidates := make([]*replica, 0, len(prefer))
	for _, group := range [][]string{primary, rest} {
		// Within each group, ready replicas go first but unready ones stay
		// listed: readiness is advisory and a probe may be stale.
		for _, u := range group {
			if rep := rt.byURL[u]; rep.ready.Load() {
				candidates = append(candidates, rep)
			}
		}
		for _, u := range group {
			if rep := rt.byURL[u]; !rep.ready.Load() {
				candidates = append(candidates, rep)
			}
		}
	}

	var lastErr error
	for i, rep := range candidates {
		if i > 0 {
			rt.add("routed_failovers", 1)
		}
		// The attempt span's context is what the client turns into the
		// forwarded traceparent header, so the replica's spans nest under
		// this attempt in the stitched trace.
		actx, span := rt.hub.StartSpan(ctx, "router", "attempt "+rep.url)
		raw, err := rep.client.MapRaw(actx, body, key)
		var view []byte
		var tier string
		if err == nil {
			view, tier, err = service.RelayView(raw.Body, strconv.Itoa(rep.idx)+".")
		}
		if err == nil {
			span.End(obs.KV{Key: "failover", Val: int64(i)})
			rt.addRouted(rep.url)
			rt.addTier(rep.url, tier)
			if rt.logger != nil && i > 0 {
				rt.logger.Info("failover succeeded", "replica", rep.url, "attempts", i+1)
			}
			return raw.Status, view, nil
		}
		span.End(obs.KV{Key: "error", Val: 1})
		rt.add("upstream_errors", 1)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// A definitive client error (4xx other than overload) would
			// fail identically on every replica: surface it now.
			if apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
				return 0, nil, err
			}
		} else if ctx.Err() == nil {
			// Transport failure (or an answer that is no job view) with a
			// live request context: the replica, not the caller, is the
			// problem.
			rt.markUnready(rep)
		}
		if ctx.Err() != nil {
			return 0, nil, err
		}
		lastErr = err
		if rt.logger != nil {
			rt.logger.Warn("replica attempt failed", "replica", rep.url, "error", err)
		}
	}
	return 0, nil, fmt.Errorf("all %d replicas failed: %w", len(candidates), lastErr)
}

// relay answers with a replica's job view bytes as RelayView rewrote
// them: the replica's status and indented layout, the router's job id.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// relayError answers a failed replica call: a replica's own API error
// keeps its status and message, anything else is a 502.
func (rt *Router) relayError(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		rt.errorJSON(w, apiErr.Status, apiErr.Message)
		return
	}
	rt.errorJSON(w, http.StatusBadGateway, err.Error())
}

// jobReplica resolves the namespaced "<replica>.<id>" job id in the
// request path to its replica and the replica's own job id, or answers
// 404 and returns a nil replica.
func (rt *Router) jobReplica(w http.ResponseWriter, r *http.Request) (*replica, string) {
	idx, id, ok := strings.Cut(r.PathValue("id"), ".")
	n, err := strconv.Atoi(idx)
	if !ok || err != nil || n < 0 || n >= len(rt.replicas) || id == "" {
		rt.errorJSON(w, http.StatusNotFound, "unknown job id (want <replica>.<id>)")
		return nil, ""
	}
	return rt.replicas[n], id
}

// handleJob polls the replica encoded in the namespaced job id and
// relays its view with the id rewritten back to the router's namespace.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rep, id := rt.jobReplica(w, r)
	if rep == nil {
		return
	}
	raw, err := rep.client.JobRaw(r.Context(), id)
	if err != nil {
		rt.relayError(w, err)
		return
	}
	body, _, err := service.RelayView(raw.Body, strconv.Itoa(rep.idx)+".")
	if err != nil {
		rt.relayError(w, err)
		return
	}
	relay(w, raw.Status, body)
}

// handleExplain proxies the attribution endpoint to the replica encoded
// in the namespaced job id, rewriting the id back to the router's
// namespace.
func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	rep, id := rt.jobReplica(w, r)
	if rep == nil {
		return
	}
	ev, err := rep.client.Explain(r.Context(), id)
	if err != nil {
		rt.relayError(w, err)
		return
	}
	ev.ID = r.PathValue("id")
	rt.writeJSON(w, http.StatusOK, ev)
}

// handleTraces serves the stitched fleet-wide trace: the router's own
// spans plus the raw spans every replica recorded under the same trace
// id, rendered as one Perfetto-loadable Chrome trace-event JSON with a
// process track per process. A replica that is down or never saw the
// trace contributes nothing (fetch errors and 404s are skipped) — the
// trace degrades to whatever the reachable processes remember.
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := rt.hub.Spans(id)
	for _, rep := range rt.replicas {
		rs, err := rep.client.TraceSpans(r.Context(), id)
		if err != nil {
			continue
		}
		spans = append(spans, rs...)
	}
	if len(spans) == 0 {
		rt.errorJSON(w, http.StatusNotFound, "unknown trace "+id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteSpans(w, spans); err != nil && rt.logger != nil {
		rt.logger.Warn("trace render failed", "trace_id", id, "error", err)
	}
}

func (rt *Router) readyCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.ready.Load() {
			n++
		}
	}
	return n
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(rt.start).Seconds()),
		"replicas":       len(rt.replicas),
		"replicas_ready": rt.readyCount(),
	})
}

// handleReadyz reports whether the router can do useful work: it is
// ready while at least one replica is.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.readyCount() == 0 {
		rt.errorJSON(w, http.StatusServiceUnavailable, "no ready replicas")
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleMetrics renders the router surface in the Prometheus text
// exposition format, same conventions as the replicas' /metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewPromWriter(w)
	build := obs.Build()

	p.Family("soirouter_build_info", "gauge", "Build identity of the running binary (constant 1).")
	p.Sample("soirouter_build_info", 1,
		"module", build.Module, "version", build.Version,
		"go_version", build.GoVersion, "revision", build.Revision)
	p.Family("soirouter_uptime_seconds", "gauge", "Seconds since the router started.")
	p.Sample("soirouter_uptime_seconds", time.Since(rt.start).Seconds())

	p.Family("soirouter_replicas", "gauge", "Configured replicas.")
	p.Sample("soirouter_replicas", float64(len(rt.replicas)))
	p.Family("soirouter_replicas_ready", "gauge", "Replicas currently passing readiness.")
	p.Sample("soirouter_replicas_ready", float64(rt.readyCount()))
	p.Family("soirouter_replica_ready", "gauge", "Per-replica readiness (1 ready, 0 not).")
	for _, rep := range rt.replicas {
		v := 0.0
		if rep.ready.Load() {
			v = 1
		}
		p.Sample("soirouter_replica_ready", v, "replica", rep.url)
	}

	rt.mu.Lock()
	counters := make(map[string]int64, len(rt.counters))
	for k, v := range rt.counters {
		counters[k] = v
	}
	routed := make(map[string]int64, len(rt.routed))
	for k, v := range rt.routed {
		routed[k] = v
	}
	tiers := make(map[tierKey]int64, len(rt.tiers))
	for k, v := range rt.tiers {
		tiers[k] = v
	}
	rt.mu.Unlock()

	for _, name := range routerCounters {
		pname := "soirouter_" + name + "_total"
		p.Family(pname, "counter", routerCounterHelp[name])
		p.Sample(pname, float64(counters[name]))
	}
	p.Family("soirouter_routed_total", "counter", "Submissions answered, by replica.")
	for _, u := range obs.SortedKeys(routed) {
		p.Sample("soirouter_routed_total", float64(routed[u]), "replica", u)
	}

	// Fleet attribution rollup: which cache tier answered, per replica
	// (from the Attribution block of each synchronous answer). Rendered
	// in sorted (replica, tier) order for a deterministic exposition.
	p.Family("soirouter_answer_tier_total", "counter",
		"Answered submissions by replica and cache tier (local, peer, miss, coalesced).")
	keys := make([]tierKey, 0, len(tiers))
	for k := range tiers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].replica != keys[j].replica {
			return keys[i].replica < keys[j].replica
		}
		return keys[i].tier < keys[j].tier
	})
	for _, k := range keys {
		p.Sample("soirouter_answer_tier_total", float64(tiers[k]),
			"replica", k.replica, "tier", k.tier)
	}
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) errorJSON(w http.ResponseWriter, code int, msg string) {
	rt.writeJSON(w, code, map[string]string{"error": msg})
}
