package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/benchfmt"
	"soidomino/internal/blif"
	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service/cache"
	"soidomino/internal/store"
	"soidomino/internal/strash"
)

// The service's fault-injection points (see internal/faultpoint). Each
// names a boundary where a real failure mode lives: request decoding,
// the worker's queue pop, and both sides of the result cache.
var (
	PointDecode   = faultpoint.Define("service.decode", "before decoding a POST /v1/map body")
	PointQueuePop = faultpoint.Define("service.queue-pop", "in a worker, after popping a job and before running it")
	PointCacheGet = faultpoint.Define("service.cache-get", "before the result-cache lookup of a submission")
	PointCachePut = faultpoint.Define("service.cache-put", "before storing a finished result in the cache")
)

// Config sizes a Server. The zero value of any field selects the
// DefaultConfig value for that field.
type Config struct {
	// Workers is the number of concurrent mapping goroutines: the
	// daemon's unit of parallelism is the job, and each job's dynamic
	// program runs sequentially.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs; a full
	// queue rejects submissions with 503 rather than buffering unboundedly.
	QueueDepth int
	// CacheEntries sizes the canonical-network result cache.
	CacheEntries int
	// DefaultTimeout applies to jobs that do not set timeout_ms.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds a request body (inline BLIF text can be large);
	// larger bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxNetworkNodes bounds the parsed source network's node count;
	// larger networks are rejected with 413 before they reach the queue.
	MaxNetworkNodes int
	// JobRetention is how long a terminal (done, failed or canceled) job
	// stays pollable at GET /v1/jobs/{id} before the janitor evicts it.
	// Without eviction the job table grows without bound.
	JobRetention time.Duration
	// Peers lists the base URLs of sibling replicas whose result caches
	// this server consults (GET /v1/cache) before mapping a cache-missed
	// job. Empty (the default) disables the shared cache tier. Mapping is
	// deterministic, so a peer's bytes are this replica's bytes.
	Peers []string
	// PeerTimeout bounds one peer cache lookup; a slow or dead peer must
	// cost less than the mapping it might save (default 200ms).
	PeerTimeout time.Duration
	// PeerHTTPClient overrides http.DefaultClient for peer cache lookups.
	PeerHTTPClient *http.Client
	// Logger receives structured request and job lifecycle logs. Nil
	// discards them (the default: logging is opt-in, see cmd/soimapd).
	Logger *slog.Logger
	// Faults optionally arms the server's fault-injection points: the
	// registry is threaded through every request and job context. Nil (the
	// default) leaves every point inert. It lives in Config, NOT in the
	// mapping Options, so faults can never leak into cache keys.
	Faults *faultpoint.Registry
	// ReplicaName identifies this replica in distributed-trace spans and
	// per-request attribution records (default "soimapd"). In a cluster
	// each replica gets a distinct name (soimapd -name) so `soimap
	// -explain` and the stitched trace say which process answered.
	ReplicaName string
	// TraceSample enables local trace sampling: every TraceSample-th
	// POST /v1/map submission that does NOT carry a traceparent header
	// starts a fresh sampled trace. 0 (the default) disables local
	// sampling — incoming sampled traceparent headers are always honored
	// regardless. Tracing never affects cache keys or routing
	// (DESIGN.md §14).
	TraceSample int
	// TraceMax bounds the number of distinct traces the in-memory trace
	// hub retains (FIFO eviction; default 64).
	TraceMax int
	// StateDir enables the crash-safe persistence tier (internal/store):
	// a durable result store behind the LRU and a job journal that lets a
	// restart re-admit unfinished jobs and re-serve terminal ones. Empty
	// (the default) keeps the server memory-only.
	StateDir string
	// JournalFsync selects the journal's durability barrier: "always"
	// (fsync every append), "interval" (background flush ~100ms, the
	// default) or "off". The result store fsyncs unless "off".
	JournalFsync string
	// StoreEntries bounds the on-disk result store (janitor-enforced,
	// oldest first). Default 4× CacheEntries: disk is cheaper than
	// memory, so the durable tier outlives the LRU.
	StoreEntries int
	// PeerMaxBodyBytes caps a peer cache-fetch response; larger replies
	// are counted as peer errors and dropped, so one sick peer cannot
	// balloon this replica's memory. Default MaxBodyBytes.
	PeerMaxBodyBytes int64
	// StrashOff disables the strash canonicalization front-end for every
	// job this server runs, ORed into each request's resolved options
	// BEFORE the cache key is computed (strash is semantic, so the key
	// must reflect it). Because soirouter resolves routing keys from the
	// request alone, a fleet must set this flag uniformly on every
	// replica AND on the router (soirouter -strash-off normalizes the
	// request itself, so its view and the replicas' agree); skewed flags
	// split the shared cache tier. Default off: strash is on.
	StrashOff bool
}

// DefaultConfig returns the daemon's stock configuration.
func DefaultConfig() Config {
	return Config{
		Workers:         runtime.GOMAXPROCS(0),
		QueueDepth:      64,
		CacheEntries:    256,
		DefaultTimeout:  30 * time.Second,
		MaxTimeout:      5 * time.Minute,
		MaxBodyBytes:    16 << 20,
		MaxNetworkNodes: 200_000,
		JobRetention:    10 * time.Minute,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = d.CacheEntries
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = d.MaxTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxNetworkNodes <= 0 {
		c.MaxNetworkNodes = d.MaxNetworkNodes
	}
	if c.JobRetention <= 0 {
		c.JobRetention = d.JobRetention
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 200 * time.Millisecond
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 4 * c.CacheEntries
	}
	if c.PeerMaxBodyBytes <= 0 {
		c.PeerMaxBodyBytes = c.MaxBodyBytes
	}
	if c.PeerHTTPClient == nil {
		c.PeerHTTPClient = http.DefaultClient
	}
	if c.ReplicaName == "" {
		c.ReplicaName = "soimapd"
	}
	return c
}

// Server is the mapping service: an HTTP handler, a bounded worker pool
// and the canonical-network result cache. Create with New, serve
// Handler(), stop with Shutdown.
type Server struct {
	cfg      Config
	metrics  *metrics
	cache    *cache.LRU[string, *MapResult]
	queue    chan *job
	logger   *slog.Logger
	start    time.Time
	reqSeq   atomic.Int64
	traceSeq atomic.Int64
	hub      *obs.TraceHub

	// draining flips /readyz to 503 ahead of Shutdown so routers can take
	// this replica out of rotation while it still accepts and finishes
	// jobs (liveness at /healthz is unaffected).
	draining atomic.Bool

	// Persistence tier (nil without Config.StateDir): the durable result
	// store behind the LRU and the job journal (see persist.go).
	store   *store.Results
	journal *store.Journal

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool
	// recovered maps job ids re-created from the journal at boot to their
	// originating requests (see RecoveredJobs).
	recovered map[string]*MapRequest
	// inflight indexes the queued/running leader job per cache key; an
	// identical submission attaches to the leader (singleflight) instead
	// of queueing a duplicate DP run.
	inflight map[string]*job

	wg          sync.WaitGroup
	baseCtx     context.Context
	baseCancel  context.CancelFunc
	mux         *http.ServeMux
	janitorStop chan struct{}
	janitorDone chan struct{}

	// mapFn runs one job's pipeline; tests substitute it to control worker
	// timing. Overridden only before the first submission (the job-channel
	// send orders the write before any worker read).
	mapFn mapFunc
}

// mapFunc runs one job's pipeline from its submission fields.
type mapFunc = func(ctx context.Context, j *job) (*MapResult, error)

// New starts a Server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		cache:     cache.New[string, *MapResult](cfg.CacheEntries),
		queue:     make(chan *job, cfg.QueueDepth),
		logger:    cfg.Logger,
		start:     time.Now(),
		jobs:      make(map[string]*job),
		inflight:  make(map[string]*job),
		recovered: make(map[string]*MapRequest),
		mapFn:     mapNetwork,
	}
	s.hub = obs.NewTraceHub(cfg.ReplicaName, cfg.TraceMax)
	if s.logger == nil {
		s.logger = discardLogger()
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	go s.janitor()
	// The workers are running, so journal recovery can re-enqueue jobs
	// and have them mapping before the HTTP listener even binds.
	s.openState()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP API, wrapped in the panic-recovery,
// request-id and access-logging middleware (recovery outermost, so a
// panicking log line cannot escape either).
func (s *Server) Handler() http.Handler { return s.withRecovery(s.withLogging(s.mux)) }

// nextRequestID produces a server-unique request identifier.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("r%06d", s.reqSeq.Add(1))
}

// BeginDrain flips /readyz to 503 so load balancers and the cluster
// router stop sending this replica new work, while /healthz (liveness)
// and the whole job API keep answering: jobs submitted during the drain
// grace window still run. Shutdown calls it implicitly; calling it ahead
// of Shutdown opens the grace window. It reports whether this call was
// the one that flipped the state.
func (s *Server) BeginDrain() bool { return s.draining.CompareAndSwap(false, true) }

// Counter reads one of the server's monotonic counters, or the
// jobs_queued/jobs_running gauge, by name (0 for unknown names).
// Exported for harnesses — the multi-node chaos campaign aggregates
// coalescing and peer-cache counters across in-process replicas.
func (s *Server) Counter(name string) int64 { return s.metrics.counter(name) }

// Shutdown stops intake, drains the queue and waits for in-flight jobs.
// If ctx expires first, running jobs are canceled through their mapping
// contexts and Shutdown returns ctx.Err() once the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.janitorStop)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		<-s.janitorDone
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		s.closeState()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		s.closeState()
		return ctx.Err()
	}
}

// MapRequest is the body of POST /v1/map. Exactly one of Circuit, BLIF
// and Bench selects the input network. Exported so internal/client and
// the chaos harness build requests against the same type the server
// decodes.
type MapRequest struct {
	Circuit   string          `json:"circuit,omitempty"` // built-in benchmark name
	BLIF      string          `json:"blif,omitempty"`    // inline BLIF text
	Bench     string          `json:"bench,omitempty"`   // inline ISCAS-89 .bench text
	Algorithm string          `json:"algorithm,omitempty"`
	Options   *RequestOptions `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"` // <0 submits already expired
	Async     bool            `json:"async,omitempty"`
}

// RequestOptions overrides mapper.DefaultOptions field by field; zero
// numeric fields keep the default.
type RequestOptions struct {
	MaxWidth      int    `json:"max_width,omitempty"`
	MaxHeight     int    `json:"max_height,omitempty"`
	Objective     string `json:"objective,omitempty"`
	ClockWeight   int    `json:"clock_weight,omitempty"`
	DepthWeight   int    `json:"depth_weight,omitempty"`
	AlwaysFooted  bool   `json:"always_footed,omitempty"`
	Pareto        bool   `json:"pareto,omitempty"`
	TupleBudget   int    `json:"tuple_budget,omitempty"`
	SequenceAware bool   `json:"sequence_aware,omitempty"`
	// Workers is accepted and ignored: the mapper's dynamic program is
	// sequential, and the daemon runs jobs, not DP nodes, in parallel.
	// The decoder rejects unknown fields, so the field stays for the
	// clients that still send it; it never reaches the cache key.
	//
	// Deprecated: Workers has no effect.
	Workers int `json:"workers,omitempty"`
	// StrashOff opts this submission out of the strash canonicalization
	// front-end. It is semantic (the mapping may differ, equivalently)
	// and participates in the cache and routing key.
	StrashOff bool `json:"strash_off,omitempty"`
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// parseSource builds the submitted network and a short label for it.
func parseSource(ctx context.Context, req *MapRequest) (*logic.Network, string, error) {
	set := 0
	for _, s := range []string{req.Circuit, req.BLIF, req.Bench} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, "", errors.New("exactly one of circuit, blif or bench is required")
	}
	switch {
	case req.Circuit != "":
		b, ok := builtin.Get(req.Circuit)
		if !ok {
			return nil, "", fmt.Errorf("unknown benchmark %q", req.Circuit)
		}
		return b.Build(), req.Circuit, nil
	case req.BLIF != "":
		n, err := blif.ParseContext(ctx, strings.NewReader(req.BLIF))
		if err != nil {
			return nil, "", fmt.Errorf("blif: %w", err)
		}
		return n, n.Name, nil
	default:
		n, err := benchfmt.Parse("inline.bench", strings.NewReader(req.Bench))
		if err != nil {
			return nil, "", fmt.Errorf("bench: %w", err)
		}
		return n, n.Name, nil
	}
}

// OptionsFromRequest resolves a request's option overrides against
// mapper.DefaultOptions and validates the result. Exported for the client and chaos packages,
// which need the exact Options a given request resolves to.
func OptionsFromRequest(ro *RequestOptions) (mapper.Options, error) {
	opt := mapper.DefaultOptions()
	if ro == nil {
		return opt, nil
	}
	if ro.MaxWidth > 0 {
		opt.MaxWidth = ro.MaxWidth
	}
	if ro.MaxHeight > 0 {
		opt.MaxHeight = ro.MaxHeight
	}
	if ro.ClockWeight > 0 {
		opt.ClockWeight = ro.ClockWeight
	}
	if ro.DepthWeight > 0 {
		opt.DepthWeight = ro.DepthWeight
	}
	switch ro.Objective {
	case "", "area":
	case "depth":
		opt.Objective = mapper.Depth
	default:
		return opt, fmt.Errorf("unknown objective %q", ro.Objective)
	}
	if ro.TupleBudget > 0 {
		opt.TupleBudget = ro.TupleBudget
	}
	opt.AlwaysFooted = ro.AlwaysFooted
	opt.Pareto = ro.Pareto
	opt.SequenceAware = ro.SequenceAware
	opt.StrashOff = ro.StrashOff
	// Out-of-range options are the submitter's error: reject them here,
	// as a 400 at submit, instead of queueing a job that cannot run.
	return opt, opt.Validate()
}

// algoKeys are the request names of the four mappers.
var algoKeys = map[string]bool{"domino": true, "rs": true, "rsdeep": true, "soi": true}

// CacheKey builds the result-cache key: a structural digest of the
// network plus everything else that shapes the result. It is also the
// cluster routing key — the router's consistent-hash ring and every
// replica's cache and singleflight layers all key on these exact bytes,
// which is what lets a replica answer from a peer's cache and a router
// coalesce identical submissions safely.
//
// Unless the options opt out, the digest is strash's own (strash.Result
// Key) over the network the pipeline will decompose, so structurally
// identical submissions that differ only in internal signal names,
// declaration order, commutative operand order, redundant twins or dead
// logic collapse onto ONE key: one cache entry, one router shard, one
// singleflight leader. A strash-off key digests the network exactly as
// declared (declaredDigest). The network name stays in the key: same
// structure under different model names is still a different submission.
func CacheKey(n *logic.Network, algo string, opt mapper.Options) string {
	key, _ := cacheKey(n, algo, opt)
	return key
}

// cacheKey is CacheKey that also returns the strash result the key was
// derived from (nil when the options opt out), so a job that misses
// every cache tier maps it without strashing again.
func cacheKey(n *logic.Network, algo string, opt mapper.Options) (string, *strash.Result) {
	var sr *strash.Result
	var digest [32]byte
	if opt.StrashOff {
		digest = declaredDigest(n)
	} else {
		sr = strash.Run(n)
		digest = sr.Key
	}
	return hex.EncodeToString(digest[:]) + "|" + n.Name + "|" + algo + "|" + encodeOptions(opt), sr
}

// declaredDigest is the strash-off structural digest: a sha256 over the
// network exactly as declared — name, every node's op, name and fanin
// ids in node order, the inputs, and the outputs in order. Any textual
// difference the mapper could observe splits it, which makes it stricter
// than the strash digest and never wrong. Strings are length prefixed so
// no two networks share a preimage.
func declaredDigest(n *logic.Network) [32]byte {
	buf := make([]byte, 0, 64+8*len(n.Nodes))
	num := func(v int) { buf = binary.AppendUvarint(buf, uint64(v)) }
	str := func(s string) {
		num(len(s))
		buf = append(buf, s...)
	}
	str(n.Name)
	num(len(n.Nodes))
	for _, nd := range n.Nodes {
		buf = append(buf, byte(nd.Op))
		str(nd.Name)
		num(len(nd.Fanin))
		for _, f := range nd.Fanin {
			num(f)
		}
	}
	num(len(n.Inputs))
	for _, id := range n.Inputs {
		num(id)
	}
	num(len(n.Outputs))
	for _, o := range n.Outputs {
		str(o.Name)
		num(o.Node)
	}
	return sha256.Sum256(buf)
}

// RequestKey resolves a MapRequest to the cache/routing key its
// submission would use, applying the same source parsing, algorithm
// default and option resolution as the submission path. Exported for the
// cluster router, which must agree byte-for-byte with every replica.
func RequestKey(ctx context.Context, req *MapRequest) (string, error) {
	src, _, err := parseSource(ctx, req)
	if err != nil {
		return "", err
	}
	algo := req.Algorithm
	if algo == "" {
		algo = "soi"
	}
	if !algoKeys[algo] {
		return "", fmt.Errorf("unknown algorithm %q (want domino, rs, rsdeep or soi)", algo)
	}
	opt, err := OptionsFromRequest(req.Options)
	if err != nil {
		return "", err
	}
	return CacheKey(src, algo, opt), nil
}

// encodeOptions renders mapper.Options as a stable, canonical cache-key
// fragment. Every result-shaping field is written explicitly — unlike
// the %+v encoding this replaces, it cannot change meaning when struct
// field order or Stringer methods do. TestCacheKeyOptionsEncoding walks
// the struct by reflection and fails when a future field is neither
// represented here nor in its explicit exemption list. The deprecated
// Workers field is exempt: it has no effect on the mapping, so two
// requests differing only there must share a cache entry.
func encodeOptions(opt mapper.Options) string {
	return fmt.Sprintf("w=%d;h=%d;obj=%d;k=%d;dw=%d;foot=%t;ord=%d;pareto=%t;budget=%d;seq=%t;soff=%t",
		opt.MaxWidth, opt.MaxHeight, opt.Objective, opt.ClockWeight, opt.DepthWeight,
		opt.AlwaysFooted, opt.BaselineStackOrder, opt.Pareto, opt.TupleBudget, opt.SequenceAware,
		opt.StrashOff)
}

// faultCtx attaches the configured fault registry (if any) to ctx.
func (s *Server) faultCtx(ctx context.Context) context.Context {
	if s.cfg.Faults != nil {
		ctx = faultpoint.With(ctx, s.cfg.Faults)
	}
	return ctx
}

// retryAfter sets the Retry-After header (whole seconds, rounded up, at
// least 1) ahead of a 429 or 503 so well-behaved clients pace their
// retries instead of hammering an overloaded or stopping server.
func retryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	ctx := s.faultCtx(r.Context())
	if err := faultpoint.From(ctx).Check(ctx, PointDecode); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request: " + err.Error()})
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req MapRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{"bad request: " + err.Error()})
		return
	}
	src, label, err := parseSource(ctx, &req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if src.Len() > s.cfg.MaxNetworkNodes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{fmt.Sprintf("network has %d nodes, limit is %d", src.Len(), s.cfg.MaxNetworkNodes)})
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "soi"
	}
	if !algoKeys[req.Algorithm] {
		writeJSON(w, http.StatusBadRequest,
			apiError{fmt.Sprintf("unknown algorithm %q (want domino, rs, rsdeep or soi)", req.Algorithm)})
		return
	}
	opt, err := OptionsFromRequest(req.Options)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if s.cfg.StrashOff {
		// Server-wide strash opt-out. Applied before CacheKey below:
		// strash is semantic, so the key must carry it.
		opt.StrashOff = true
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > s.cfg.MaxTimeout.Milliseconds() {
		// Capped in milliseconds: converting first would overflow
		// time.Duration for huge values and wrap to a negative timeout.
		timeout = s.cfg.MaxTimeout
	} else if req.TimeoutMS != 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	tc := obs.TraceContextFrom(r.Context())
	keyStart := time.Now()
	key, sr := cacheKey(src, req.Algorithm, opt)
	if sr != nil {
		// Strash runs on the key path of every submission; a job that
		// misses every cache tier maps sr instead of strashing again.
		d := time.Since(keyStart)
		s.metrics.recordEngine(req.Algorithm, &obs.Stats{Phases: obs.PhaseTimes{Strash: d}})
		s.hub.Record(tc, "pipeline", "strash "+src.Name, keyStart, d)
	}
	j := &job{
		circuit:  label,
		algo:     req.Algorithm,
		src:      src,
		opt:      opt,
		reqID:    obs.RequestID(r.Context()),
		tc:       tc,
		deadline: time.Now().Add(timeout),
		cacheKey: key,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
	j.submitted = time.Now()
	s.metrics.add("jobs_submitted", 1)

	// Answer identical resubmissions from the cache without queueing. A
	// cache-get fault degrades to a miss: worst case the job recomputes.
	if faultpoint.From(ctx).Check(ctx, PointCacheGet) == nil {
		if res, ok := s.cache.Get(j.cacheKey); ok {
			s.registerJob(j)
			j.cached = true
			s.hub.Record(j.tc, "service", "cache local hit", time.Now(), 0)
			j.setAttribution(s.attribute(j, TierLocal, 0, time.Since(j.submitted), nil))
			j.finish(JobDone, res, "")
			s.metrics.add("cache_hits", 1)
			s.metrics.add("jobs_done", 1)
			writeJSON(w, http.StatusOK, j.view())
			return
		}
		// Durable second tier: an LRU miss may still be on disk (earlier
		// run, or a previous life of this process). Hits are promoted back
		// into the LRU; corrupt entries quarantine inside storeGet and
		// degrade to a miss.
		if res := s.storeGet(j.cacheKey); res != nil {
			s.registerJob(j)
			j.cached = true
			s.cache.Add(j.cacheKey, res)
			s.hub.Record(j.tc, "service", "cache store hit", time.Now(), 0)
			j.setAttribution(s.attribute(j, TierStore, 0, time.Since(j.submitted), nil))
			j.finish(JobDone, res, "")
			s.metrics.add("jobs_done", 1)
			writeJSON(w, http.StatusOK, j.view())
			return
		}
	}
	s.metrics.add("cache_misses", 1)

	// Singleflight: an identical submission already queued or running
	// makes this one a follower — it gets its own job id and (byte-
	// identical) copy of the leader's outcome without consuming a queue
	// slot or a DP run. A thundering herd of one key maps once.
	s.mu.Lock()
	if leader, ok := s.inflight[j.cacheKey]; ok {
		j.coalesced = true
		s.registerJobLocked(j)
		s.mu.Unlock()
		s.metrics.add("jobs_coalesced", 1)
		go s.followLeader(j, leader)
		s.answer(w, r, &req, j)
		return
	}
	s.mu.Unlock()

	// Load shedding: a job that would out-wait its own deadline in the
	// queue is doomed — failing it now with a retry hint beats burning a
	// worker slot on a result nobody can receive. The wait estimate is
	// queue length × smoothed job duration / workers; with no completed
	// job yet the estimate is zero and nothing is shed.
	// An already-expired deadline is not shed: it costs one checkpoint
	// in the DP ("canceled at node 0"), and that cancellation path must
	// stay reachable regardless of load history.
	if avg := s.metrics.avgJobDuration(); avg > 0 && time.Now().Before(j.deadline) {
		queued := s.metrics.jobsQueued.Load()
		wait := time.Duration(queued) * avg / time.Duration(s.cfg.Workers)
		if time.Now().Add(wait).After(j.deadline) {
			s.metrics.add("jobs_shed", 1)
			s.hub.Record(j.tc, "service", "shed", time.Now(), 0,
				obs.KV{Key: "est_wait_ms", Val: wait.Milliseconds()})
			retryAfter(w, wait)
			writeJSON(w, http.StatusTooManyRequests,
				apiError{fmt.Sprintf("overloaded: estimated queue wait %s exceeds the job deadline", wait.Round(time.Millisecond))})
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Shutdown is not overload: 503 tells the client this instance is
		// going away; Retry-After hints when a replacement may listen.
		retryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, apiError{"server is shutting down"})
		return
	}
	// Name the job before the send: the worker that receives it reads
	// j.id (journal records, logs) without taking s.mu.
	s.registerJobLocked(j)
	j.strashed = sr
	select {
	case s.queue <- j:
		s.inflight[j.cacheKey] = j
		s.mu.Unlock()
		s.metrics.jobsQueued.Add(1)
		// Journal the accepted leader (with its request) so a crash from
		// here on re-admits the job instead of 404ing its poller.
		s.journalAccepted(ctx, j, &req)
	default:
		// A rejected job was never visible: give back its slot and id.
		delete(s.jobs, j.id)
		s.nextID--
		s.mu.Unlock()
		s.metrics.add("jobs_rejected", 1)
		// A full queue is transient overload: 429 plus a drain-time
		// estimate distinguishes it from the terminal shutdown 503.
		wait := s.metrics.avgJobDuration()
		if wait <= 0 {
			wait = time.Second
		}
		retryAfter(w, wait)
		writeJSON(w, http.StatusTooManyRequests,
			apiError{fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueDepth)})
		return
	}

	s.answer(w, r, &req, j)
}

// answer completes a submission: async callers get 202 immediately, sync
// callers wait for the job (or give up with their connection, leaving the
// job running and pollable).
func (s *Server) answer(w http.ResponseWriter, r *http.Request, req *MapRequest, j *job) {
	if req.Async {
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.view())
	case <-r.Context().Done():
		// Client gave up; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

// followLeader finishes follower job j with leader's terminal outcome.
// Leaders always finish (Shutdown drains the queue through the workers),
// so the goroutine cannot leak.
func (s *Server) followLeader(j, leader *job) {
	<-leader.done
	state, res, errMsg := leader.outcome()
	s.metrics.addTerminal(state)
	wait := time.Since(j.submitted)
	s.hub.Record(j.tc, "service", "coalesced follower wait", j.submitted, wait,
		obs.KV{Key: "ok", Val: boolInt(state == JobDone)})
	j.setAttribution(s.attribute(j, TierCoalesced, 0, wait, nil))
	j.finish(state, res, errMsg)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// attribute builds job j's attribution record.
func (s *Server) attribute(j *job, tier string, queueWait, wall time.Duration, st *obs.Stats) *Attribution {
	traceID := ""
	if j.tc.Sampled {
		traceID = j.tc.TraceID
	}
	return NewAttribution(s.cfg.ReplicaName, traceID, tier, queueWait, wall, st)
}

func (s *Server) registerJob(j *job) {
	s.mu.Lock()
	s.registerJobLocked(j)
	s.mu.Unlock()
}

func (s *Server) registerJobLocked(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.id] = j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleExplain serves the per-request cost attribution of one job:
// which cache tier answered, queue wait, per-phase wall time, strash
// reductions and the answering replica's identity. Attribution is nil
// until the job reaches a terminal state.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.explain())
}

// handleTraces serves one distributed trace recorded by this process.
// The default rendering is Chrome trace-event JSON (Perfetto-loadable);
// ?raw=1 returns the process's spans as a JSON array with absolute
// timestamps, which is what soirouter fetches from every replica to
// stitch the fleet-wide trace.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.hub.Spans(id)
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{"unknown trace " + id})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("raw") == "1" {
		writeJSON(w, http.StatusOK, spans)
		return
	}
	if err := obs.WriteSpans(w, spans); err != nil {
		s.logger.Warn("trace render failed", "trace_id", id, "error", err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string        `json:"status"`
		Workers int           `json:"workers"`
		UptimeS int64         `json:"uptime_s"`
		Build   obs.BuildInfo `json:"build"`
	}{"ok", s.cfg.Workers, int64(time.Since(s.start).Seconds()), obs.Build()})
}

// handleReadyz is the drain-aware readiness probe: 200 while the server
// wants traffic, 503 from the moment BeginDrain (or Shutdown) is called.
// Liveness (/healthz) stays 200 throughout a drain — a draining replica
// is healthy, it just should not be routed new work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := struct {
		Status  string `json:"status"`
		UptimeS int64  `json:"uptime_s"`
	}{"ready", int64(time.Since(s.start).Seconds())}
	if s.draining.Load() {
		status.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, status)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleCacheLookup serves this replica's slice of the cluster's shared
// result-cache tier: a peer that misses locally asks here before mapping.
// Only already-cached bytes are returned — a lookup never triggers work.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"missing key parameter"})
		return
	}
	res, ok := s.cache.Get(key)
	if !ok {
		// The disk tier answers for the LRU here too: a peer asking this
		// replica sees its whole persistent cache, so a freshly-restarted
		// sibling keeps the cluster's shared tier warm. The stored bytes
		// are EncodeJSON output verbatim — served as-is.
		if b := s.storeGetRaw(key); b != nil {
			s.metrics.add("cluster_cache_served", 1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
		writeJSON(w, http.StatusNotFound, apiError{"no cached result for key"})
		return
	}
	b, err := EncodeJSON(res)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{"encode: " + err.Error()})
		return
	}
	s.metrics.add("cluster_cache_served", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// peerFetch consults the configured peers' caches for key and returns
// the first hit, nil on miss. Each lookup is bounded by PeerTimeout and
// any failure just degrades to a miss — the shared tier is an
// optimization, never a dependency.
func (s *Server) peerFetch(ctx context.Context, key string) *MapResult {
	if len(s.cfg.Peers) == 0 || ctx.Err() != nil {
		return nil
	}
	q := "/v1/cache?key=" + url.QueryEscape(key)
	for _, peer := range s.cfg.Peers {
		pctx, span := s.hub.StartSpan(ctx, "peer", "peer cache "+peer)
		res, err := s.peerFetchOne(pctx, peer+q)
		if err != nil {
			span.End(obs.KV{Key: "error", Val: 1})
			s.metrics.add("cluster_cache_peer_errors", 1)
			continue
		}
		span.End(obs.KV{Key: "hit", Val: boolInt(res != nil)})
		if res != nil {
			return res
		}
	}
	return nil
}

func (s *Server) peerFetchOne(ctx context.Context, u string) (*MapResult, error) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	// Propagate the request id and trace context so the peer's access log
	// and trace hub join this request's story.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if tc := obs.TraceContextFrom(ctx); tc.Sampled && tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := s.cfg.PeerHTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer cache: status %d", resp.StatusCode)
	}
	// Read one byte past the cap so an oversized reply is a hard, counted
	// error (the caller's cluster_cache_peer_errors) instead of a silent
	// truncation that would surface as a confusing decode failure.
	b, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.PeerMaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > s.cfg.PeerMaxBodyBytes {
		return nil, fmt.Errorf("peer cache: response exceeds %d bytes", s.cfg.PeerMaxBodyBytes)
	}
	var res MapResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)

	// Singleflight rule: the job is a leader from the moment it is queued
	// until it turns terminal, and no longer. Every terminal path goes
	// through s.settle, which drops the inflight entry before publishing
	// the outcome: followers that attached while it was queued or running
	// get that outcome, and a submission that can already see the job
	// terminal — a client retrying a failure, say — never follows it but
	// finds the result in the cache or runs afresh.
	j.setRunning()
	ctx, cancel := context.WithDeadline(s.baseCtx, j.deadline)
	defer cancel()
	ctx = s.faultCtx(ctx)
	s.journalAppend(ctx, store.JobRecord{Type: store.RecRunning, ID: j.id, Key: j.cacheKey})
	// Give injected Cancel faults a handle on this job's context, so a
	// "client vanished" failure propagates through real plumbing.
	ctx, faultCancel := faultpoint.WithCancel(ctx)
	defer faultCancel()

	// The job context carries the originating request id and a fresh
	// per-run stats collector: the mapper engine records into it and the
	// run's counters are merged into the per-algorithm aggregates served
	// at /metrics. Per-run, so parallel workers never share a collector.
	if j.reqID != "" {
		ctx = obs.WithRequestID(ctx, j.reqID)
	}
	st := &obs.Stats{}
	ctx = obs.WithStats(ctx, st)

	start := time.Now()
	queueWait := start.Sub(j.submitted)
	defer func() { s.metrics.recordDuration(time.Since(start)) }()

	// Distributed tracing: a sampled job records its queue wait and a run
	// span into the trace hub, and runs with an in-process Tracer whose
	// pipeline/mapper phase spans are already children of the run span;
	// they go into the hub when the job ends (whatever way it ends).
	// Unsampled jobs skip all of it — the tracer stays nil, so the
	// mapper's disabled fast path is untouched.
	if j.tc.Sampled && j.tc.Valid() {
		ctx = obs.WithTraceContext(ctx, j.tc)
		s.hub.Record(j.tc, "service", "queue wait", j.submitted, queueWait)
		var runSpan *obs.ActiveSpan
		ctx, runSpan = s.hub.StartSpan(ctx, "service", "job "+j.algo+" "+j.circuit)
		tr := s.hub.Tracer(ctx, 1<<20) // phase spans only; per-node spans sampled out
		ctx = obs.WithTracer(ctx, tr)
		defer func() {
			for _, sp := range tr.Spans() {
				s.hub.Add(sp)
			}
			runSpan.End(obs.KV{Key: "dp_tuples", Val: st.TuplesGenerated})
		}()
	}

	// Panic isolation: a panic anywhere in the mapping pipeline fails
	// THIS job and leaves the worker (and daemon) serving. The client
	// sees a redacted one-line stack; the full stack goes to the log.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := debug.Stack()
		s.metrics.add("jobs_panicked", 1)
		s.metrics.add("jobs_failed", 1)
		j.setAttribution(s.attribute(j, TierMiss, queueWait, time.Since(start), st))
		s.settle(j, JobFailed, nil, fmt.Sprintf("internal panic: %v [%s]", r, redactStack(stack)))
		s.journalTerminal(ctx, j, JobFailed, "internal panic")
		s.logger.Error("job panicked",
			"request_id", j.reqID, "job_id", j.id, "circuit", j.circuit,
			"algorithm", j.algo, "panic", fmt.Sprint(r), "stack", string(stack),
			"duration", time.Since(start))
	}()

	// Shared cache tier: before paying for a DP run, ask the peer
	// replicas whether one already mapped this key. Mapping is
	// deterministic, so a peer's encoded result is byte-identical to what
	// this replica would compute; any peer failure degrades to a miss.
	if res := s.peerFetch(ctx, j.cacheKey); res != nil {
		s.metrics.add("cluster_cache_peer_hits", 1)
		if faultpoint.From(ctx).Check(ctx, PointCachePut) == nil {
			s.cache.Add(j.cacheKey, res)
		}
		s.metrics.add("jobs_done", 1)
		j.setCached()
		j.setAttribution(s.attribute(j, TierPeer, queueWait, time.Since(start), nil))
		s.settle(j, JobDone, res, "")
		// A peer's bytes are this replica's bytes (determinism), so they
		// warm the durable tier too.
		s.persistResult(ctx, j.cacheKey, res)
		s.journalTerminal(ctx, j, JobDone, "")
		s.logger.Info("job finished",
			"request_id", j.reqID, "job_id", j.id, "circuit", j.circuit,
			"algorithm", j.algo, "state", string(JobDone), "peer_cache", true,
			"duration", time.Since(start))
		return
	}

	res, err := s.mapFn(ctx, j)
	if err == nil {
		if ferr := faultpoint.From(ctx).Check(ctx, PointQueuePop); ferr != nil {
			err = ferr
		}
	}
	s.metrics.recordEngine(j.algo, st)
	if err != nil {
		state := JobFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = JobCanceled
		}
		s.metrics.addTerminal(state)
		j.setAttribution(s.attribute(j, TierMiss, queueWait, time.Since(start), st))
		s.settle(j, state, nil, err.Error())
		s.journalTerminal(ctx, j, state, err.Error())
		s.logger.Warn("job finished",
			"request_id", j.reqID, "job_id", j.id, "circuit", j.circuit,
			"algorithm", j.algo, "state", string(state), "error", err.Error(),
			"duration", time.Since(start))
		return
	}
	// A cache-put fault only skips the store; the computed result is
	// still correct and still returned.
	if faultpoint.From(ctx).Check(ctx, PointCachePut) == nil {
		s.cache.Add(j.cacheKey, res)
	}
	s.metrics.observe(j.algo, time.Since(start))
	s.metrics.add("jobs_done", 1)
	j.setAttribution(s.attribute(j, TierMiss, queueWait, time.Since(start), st))
	s.settle(j, JobDone, res, "")
	// Write-behind persistence after finish: the waiter is answered
	// first, and a crash in the window before these land only costs a
	// re-derivation (the journal re-admits, mapping is deterministic).
	s.persistResult(ctx, j.cacheKey, res)
	s.journalTerminal(ctx, j, JobDone, "")
	s.logger.Info("job finished",
		"request_id", j.reqID, "job_id", j.id, "circuit", j.circuit,
		"algorithm", j.algo, "state", string(JobDone),
		"dp_tuples", st.TuplesGenerated, "duration", time.Since(start))
}

// settle publishes a leader job's terminal state, leaving the
// singleflight index first (see runJob): once a submission can observe
// the job as terminal, it can no longer find it in s.inflight.
func (s *Server) settle(j *job, state JobState, res *MapResult, errMsg string) {
	s.mu.Lock()
	if s.inflight[j.cacheKey] == j {
		delete(s.inflight, j.cacheKey)
	}
	s.mu.Unlock()
	j.finish(state, res, errMsg)
}

// janitor evicts terminal jobs older than JobRetention from the job
// table. It runs outside s.wg (the workers' group) so Shutdown can drain
// workers and stop the janitor independently; janitorDone orders its exit
// before Shutdown returns.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	interval := s.cfg.JobRetention / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			n := s.evictJobs(time.Now().Add(-s.cfg.JobRetention))
			if n > 0 {
				s.metrics.add("jobs_evicted", int64(n))
				s.logger.Info("jobs evicted", "count", n)
			}
			// Disk and memory evict together: evicted jobs leave the
			// journal, and the result store stays bounded by StoreEntries.
			s.compactState(n)
		}
	}
}

// evictJobs removes terminal jobs that finished before cutoff, returning
// how many went.
func (s *Server) evictJobs(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, j := range s.jobs {
		if j.terminalBefore(cutoff) {
			delete(s.jobs, id)
			n++
		}
	}
	return n
}

// mapNetwork runs the full pipeline — decompose, unate-convert, map,
// audit, encode — under ctx, from the strash result the job's cache key
// was derived from. It is the one code path both the daemon and (modulo
// context) the CLI's -json mode represent.
func mapNetwork(ctx context.Context, j *job) (*MapResult, error) {
	circuit, algo, opt := j.circuit, j.algo, j.opt
	p, err := report.PrepareStrashed(ctx, j.src, j.strashed)
	if err != nil {
		return nil, err
	}
	var res *mapper.Result
	switch algo {
	case "domino":
		res, err = mapper.DominoMapContext(ctx, p.Unate, opt)
	case "rs":
		res, err = mapper.RSMapContext(ctx, p.Unate, opt)
	case "rsdeep":
		res, err = mapper.RSMapDeepContext(ctx, p.Unate, opt)
	case "soi":
		res, err = mapper.SOIDominoMapContext(ctx, p.Unate, opt)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return nil, err
	}
	// The audit is a full structural re-verification and a real slice of a
	// job's wall time, so it is timed (and traced) like the other phases —
	// the explain endpoint's phase breakdown should sum to the run wall.
	st, tr := obs.StatsFrom(ctx), obs.TracerFrom(ctx)
	aStart := tr.Now()
	if err := obs.Timed(st, obs.PhaseAudit, res.Audit); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	tr.Span("pipeline", "audit "+circuit, aStart)
	return NewMapResult(circuit, p, res), nil
}
