package service

import (
	"bytes"
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
	// queue rejects submissions with 429 rather than buffering unboundedly.
	QueueDepth int
	// CacheEntries sizes the in-memory result cache (keyed by CacheKey).
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
	// POST /v1/map submission that does NOT carry a sampled traceparent
	// header starts a fresh sampled trace. 0 (the default) disables local
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
}

// defaultMaxNetworkNodes is DefaultConfig's network node limit, which
// also caps RequestKey's presize hint.
const defaultMaxNetworkNodes = 200_000

// DefaultConfig returns the daemon's stock configuration.
func DefaultConfig() Config {
	return Config{
		Workers:         runtime.GOMAXPROCS(0),
		QueueDepth:      64,
		CacheEntries:    256,
		DefaultTimeout:  30 * time.Second,
		MaxTimeout:      5 * time.Minute,
		MaxBodyBytes:    16 << 20,
		MaxNetworkNodes: defaultMaxNetworkNodes,
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
// and the result cache keyed by strash's structural digest. Create with
// New, serve Handler(), stop with Shutdown.
type Server struct {
	cfg      Config
	metrics  *metrics
	cache    *cache.LRU[string, []byte] // held result encodings (EncodeJSON)
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
	// identical submission attaches to the leader (see admit) instead of
	// queueing a duplicate DP run. It is the service's one coalescing
	// layer: the router sends identical keys to one replica.
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
		cache:     cache.New[string, []byte](cfg.CacheEntries),
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
	// ParseRequest, which rejects unknown fields, still reads it for
	// the clients that send it; it never reaches the cache key.
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

// ParseSource builds the submitted network and a short label for it:
// the registry name of a circuit, else the network's own name (an
// inline .bench source is named "inline.bench"). It is the one place a
// circuit, BLIF or bench source becomes a network, for soimapd and for
// soimap's local mode alike.
func ParseSource(ctx context.Context, req *MapRequest) (*logic.Network, string, error) {
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
		n, err := blif.ParseContext(ctx, req.BLIF)
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
	if ro.MaxWidth < 0 || ro.MaxHeight < 0 || ro.ClockWeight < 0 || ro.DepthWeight < 0 || ro.TupleBudget < 0 {
		return opt, errors.New("max_width, max_height, clock_weight, depth_weight and tuple_budget must not be negative (0 selects the default)")
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

// CacheKey builds the result-cache key: a structural digest of the
// network plus everything else that shapes the result. It is also the
// cluster routing key — the router's consistent-hash ring and every
// replica's cache and in-flight table key on these exact bytes, which is
// what lets a replica answer from a peer's cache and coalesce identical
// submissions safely.
//
// Unless the options opt out, the digest is strash's own (strash.Result
// Key) over the network the pipeline will decompose, so structurally
// identical submissions that differ only in internal signal names,
// declaration order, commutative operand order, redundant twins or dead
// logic collapse onto ONE key: one cache entry, one router shard, one
// in-flight leader. A strash-off key digests the network exactly as
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
	return formatKey(digest, n.Name, algo, opt), sr
}

// formatKey joins a cache key's parts: the structural digest, the
// network name, the algorithm and the options encoding.
func formatKey(digest [32]byte, name, algo string, opt mapper.Options) string {
	return hex.EncodeToString(digest[:]) + "|" + name + "|" + algo + "|" + encodeOptions(opt)
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
// submission would use. It is resolve's key, so it agrees byte-for-byte
// with every replica. Exported for the cluster router.
//
// An inline BLIF source under strash is keyed from its text: the reader
// lowers each cover straight into strash's hash-consing builder, and no
// network is built. Any other request (a registry circuit, a bench
// source, or strash_off, whose digest reads the declared network) goes
// through resolve.
func RequestKey(ctx context.Context, req *MapRequest) (string, error) {
	if req.BLIF != "" && req.Circuit == "" && req.Bench == "" {
		if algo, opt, err := ResolveSpec(req); err == nil && !opt.StrashOff {
			// Write's output runs about 16 bytes of text per node. The
			// hint is capped at the default node limit, so a large body
			// of blank lines presizes no more than a network a replica
			// would admit.
			b := strash.NewBuilder(min(len(req.BLIF)/16, defaultMaxNetworkNodes))
			defer b.Release()
			model, err := blif.Lower(ctx, req.BLIF, b)
			if err != nil {
				return "", fmt.Errorf("blif: %w", err)
			}
			return formatKey(b.Key(model), model, algo.Key(), opt), nil
		}
	}
	j, _, err := resolve(ctx, req, 0)
	if err != nil {
		return "", err
	}
	return j.cacheKey, nil
}

// resolve turns a decoded request into an unadmitted job: it derives the
// algorithm and options (ResolveSpec), then parses the source
// (ParseSource) and derives the cache key. Submission, journal
// re-admission and RequestKey all resolve here, so they agree on every
// key byte; soimap's local mode resolves in the same order, so its
// errors are these. maxNodes > 0 bounds the parsed network. On failure
// it returns the status to answer with: 413 for an oversized network,
// 400 otherwise.
func resolve(ctx context.Context, req *MapRequest, maxNodes int) (*job, int, error) {
	algo, opt, err := ResolveSpec(req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	src, label, err := ParseSource(ctx, req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if maxNodes > 0 && src.Len() > maxNodes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("network has %d nodes, limit is %d", src.Len(), maxNodes)
	}
	start := time.Now()
	key, sr := cacheKey(src, algo.Key(), opt)
	return &job{
		circuit:    label,
		algo:       algo,
		src:        src,
		opt:        opt,
		cacheKey:   key,
		strashed:   sr,
		strashTime: time.Since(start),
		state:      JobQueued,
		done:       make(chan struct{}),
	}, http.StatusOK, nil
}

// ResolveSpec resolves a request's algorithm (default SOI) and validated
// options, strash_off among them: everything in the cache key but the
// network. The options are the algorithm's canonical ones (every field
// it does not read at its default), so requests that differ only in
// such fields share one key, job, journal entry and stored result. It
// never looks at the source, so it is cheap, and resolve (like soimap's
// local mode) calls it before parsing anything.
func ResolveSpec(req *MapRequest) (report.Algorithm, mapper.Options, error) {
	algo := report.SOI
	if req.Algorithm != "" {
		var err error
		if algo, err = report.ParseAlgorithm(req.Algorithm); err != nil {
			return algo, mapper.Options{}, err
		}
	}
	opt, err := OptionsFromRequest(req.Options)
	if err != nil {
		return algo, opt, err
	}
	return algo, algo.Canonical(opt), nil
}

// KeyHeader carries a submission's cache key, as service.RequestKey
// derived it, from soirouter to the replica it routes to. The replica
// looks its cache tiers up under that key before parsing anything
// (forwardedJob): a routed hit pays for the key once, at the router.
const KeyHeader = "X-Cache-Key"

// forwardedJob resolves a submission from the cache key a router sent in
// KeyHeader, without parsing or strashing its source. Only the key's
// structural part is taken on trust (keyLabel checks the rest against
// the request). Trusting the digest adds no trust class: GET /v1/cache
// already serves held bytes by key to anyone. It returns nil when the
// request or the key does not resolve; the submission then resolves the
// slow way.
func forwardedJob(req *MapRequest, key string) *job {
	algo, opt, err := ResolveSpec(req)
	if err != nil {
		return nil
	}
	label, ok := keyLabel(req, key, algo, opt)
	if !ok {
		return nil
	}
	return &job{
		circuit:  label,
		algo:     algo,
		opt:      opt,
		cacheKey: key,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
}

// keyLabel returns the label resolve gives req, read off its cache key:
// the registry name of a circuit request, else the network name. ok is
// false unless key starts with a 64-digit hex digest and '|' and ends in
// "|<algorithm>|<options>" exactly as req resolves them (algo, opt),
// options.strash_off included. The network name is what lies between,
// cut by position since a .model name may hold '|'.
func keyLabel(req *MapRequest, key string, algo report.Algorithm, opt mapper.Options) (label string, ok bool) {
	suffix := "|" + algo.Key() + "|" + encodeOptions(opt)
	if len(key) < 65+len(suffix) || key[64] != '|' || !strings.HasSuffix(key, suffix) {
		return "", false
	}
	for i := 0; i < 64; i++ {
		if strings.IndexByte(hexDigits, key[i]) < 0 {
			return "", false
		}
	}
	if req.Circuit != "" {
		return req.Circuit, true
	}
	return key[65 : len(key)-len(suffix)], true
}

// encodeOptions renders canonical mapper.Options (ResolveSpec's) as a
// stable cache-key fragment. Every field some algorithm reads is written
// explicitly — unlike the %+v encoding this replaces, it cannot change
// meaning when struct field order or Stringer methods do.
// TestCacheKeyOptionsEncoding walks the struct by reflection and fails
// when a field does not declare which algorithms read it, or when the
// key does not change for exactly those.
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

// ReadRequest reads a whole POST /v1/map body, at most maxBytes, into a
// buffer presized from Content-Length; ParseRequest then decodes the
// bytes. soimapd and soirouter (which also hashes and forwards them)
// both read submissions this way, so a body past the limit is a 413
// however early its JSON value ends or breaks off. On failure it
// returns the status to answer with: 413 for a body past the limit, 400
// otherwise.
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, int, error) {
	size := 0
	if r.ContentLength > 0 && r.ContentLength <= maxBytes {
		size = int(r.ContentLength) + bytes.MinRead // room to read EOF without growing
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes)); err != nil {
		status, err := readError(err)
		return nil, status, err
	}
	return buf.Bytes(), http.StatusOK, nil
}

// readError maps a body read failure to its answer: 413 when the body
// passed the byte limit, 400 otherwise.
func readError(err error) (int, error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("bad request: %w", err)
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	ctx := s.faultCtx(r.Context())
	if err := faultpoint.From(ctx).Check(ctx, PointDecode); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request: " + err.Error()})
		return
	}
	body, status, err := ReadRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	// Answer identical resubmissions from this replica's cache tiers
	// without queueing; each tier is looked up at most once per request.
	// A cache-get fault degrades to a miss: worst case the job recomputes.
	lookup := faultpoint.From(ctx).Check(ctx, PointCacheGet) == nil
	fwd := r.Header.Get(KeyHeader)
	looked := ""
	if lookup && fwd != "" {
		if j := forwardedJob(req, fwd); j != nil {
			s.stamp(r, req, j)
			if res, tier := s.lookupLocal(j.cacheKey); res != nil {
				s.metrics.add("jobs_submitted", 1)
				s.serveHit(ctx, w, r, req, j, res, tier)
				return
			}
			// A leader of the key already queued or running: ride it
			// without parsing or strashing, like a hit.
			if s.follow(j) {
				s.metrics.add("jobs_submitted", 1)
				s.metrics.add("cache_misses", 1)
				s.answer(w, r, req, j)
				return
			}
			looked = j.cacheKey
		}
	}

	j, status, err := resolve(ctx, req, s.cfg.MaxNetworkNodes)
	if err != nil {
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	if fwd != "" && fwd != j.cacheKey {
		// The router keyed this submission differently (a forged or
		// stale header): the replica's own key is the one that stores
		// and coalesces.
		s.metrics.add("key_mismatches", 1)
		s.logger.Error("forwarded key mismatch", "request_id", obs.RequestID(r.Context()),
			"forwarded", fwd, "key", j.cacheKey)
	}
	s.stamp(r, req, j)
	if j.strashed != nil {
		// Strash runs on the key path of every strash-on submission; a
		// job that misses every cache tier maps j.strashed instead of
		// strashing again.
		d := j.strashTime
		s.metrics.recordEngine(j.algo.Key(), &obs.Stats{Phases: obs.PhaseTimes{Strash: d}})
		s.hub.Record(j.tc, "pipeline", "strash "+j.src.Name, time.Now().Add(-d), d)
	}
	s.metrics.add("jobs_submitted", 1)
	if lookup && j.cacheKey != looked {
		if res, tier := s.lookupLocal(j.cacheKey); res != nil {
			s.serveHit(ctx, w, r, req, j, res, tier)
			return
		}
	}
	s.metrics.add("cache_misses", 1)

	if ref := s.admit(j); ref != nil {
		retryAfter(w, ref.retry)
		writeJSON(w, ref.status, apiError{ref.msg})
		return
	}
	if !j.coalesced {
		// Journal the accepted leader (with its request) so a crash from
		// here on re-admits the job instead of 404ing its poller.
		s.journalAccepted(ctx, j, body)
	}
	s.answer(w, r, req, j)
}

// stamp readies a resolved job for submission: the request's id, trace
// context and deadline, and the submission time.
func (s *Server) stamp(r *http.Request, req *MapRequest, j *job) {
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
	j.reqID = obs.RequestID(r.Context())
	j.tc = obs.TraceContextFrom(r.Context())
	j.deadline = time.Now().Add(timeout)
	j.submitted = time.Now()
}

// serveHit answers submission j with res, the held bytes its cache tier
// returned.
func (s *Server) serveHit(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req *MapRequest, j *job, res []byte, tier string) {
	j.src, j.strashed = nil, nil // only a queued leader maps
	s.registerJob(j)
	s.hub.Record(j.tc, "service", "cache "+tier+" hit", time.Now(), 0)
	s.complete(ctx, j, tier, 0, time.Since(j.submitted), nil, JobDone, res, "")
	s.answer(w, r, req, j)
}

// lookupLocal answers key from this replica's own cache tiers: the LRU,
// then the durable store, whose hits are promoted back into the LRU
// (corrupt entries quarantine inside storeGet and read as a miss). It
// returns the held result bytes and the answering tier, TierLocal or
// TierStore; nil bytes on a miss. Submissions and GET /v1/cache both
// look up here. The peer tier is runJob's, after admission: a herd of
// one key makes one peer fetch, and a peer's lookup never fans out to
// further peers.
func (s *Server) lookupLocal(key string) ([]byte, string) {
	if res, ok := s.cache.Get(key); ok {
		return res, TierLocal
	}
	if res := s.storeGet(key); res != nil {
		s.cache.Add(key, res)
		return res, TierStore
	}
	return nil, ""
}

// refusal is why admit turned a job away: the status to answer with, a
// Retry-After hint and the message.
type refusal struct {
	status int
	retry  time.Duration
	msg    string
}

// admit hands a job that missed every local cache tier to the DP. An
// identical job already queued or running makes it a follower: it gets
// its own id and a byte-identical copy of the leader's outcome without
// a queue slot or a DP run, so a thundering herd of one key maps once.
// Otherwise the job queues as its key's leader, unless it is shed, the
// server is shutting down or the queue is full. Live submissions and
// journal re-admission both admit here; a re-admitted job keeps the id
// it arrives with, any other is numbered on registration.
func (s *Server) admit(j *job) *refusal {
	if s.follow(j) {
		return nil
	}

	// Load shedding: a job that would out-wait its own deadline in the
	// queue is doomed — failing it now with a retry hint beats burning a
	// worker slot on a result nobody can receive. The wait estimate is
	// queue length × smoothed job duration / workers; with no completed
	// job yet (as during journal recovery) the estimate is zero and
	// nothing is shed. An already-expired deadline is not shed: it costs
	// one checkpoint in the DP ("canceled at node 0"), and that
	// cancellation path must stay reachable regardless of load history.
	if avg := s.metrics.avgJobDuration(); avg > 0 && time.Now().Before(j.deadline) {
		queued := s.metrics.jobsQueued.Load()
		wait := time.Duration(queued) * avg / time.Duration(s.cfg.Workers)
		if time.Now().Add(wait).After(j.deadline) {
			s.metrics.add("jobs_shed", 1)
			s.hub.Record(j.tc, "service", "shed", time.Now(), 0,
				obs.KV{Key: "est_wait_ms", Val: wait.Milliseconds()})
			return &refusal{http.StatusTooManyRequests, wait,
				fmt.Sprintf("overloaded: estimated queue wait %s exceeds the job deadline", wait.Round(time.Millisecond))}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Shutdown is not overload: 503 tells the client this instance is
		// going away; Retry-After hints when a replacement may listen.
		return &refusal{http.StatusServiceUnavailable, time.Second, "server is shutting down"}
	}
	// Name the job before the send: the worker that receives it reads
	// j.id (journal records, logs) without taking s.mu.
	numbered := j.id == ""
	s.registerJobLocked(j)
	select {
	case s.queue <- j:
		s.inflight[j.cacheKey] = j
		s.metrics.jobsQueued.Add(1)
		return nil
	default:
		// A rejected job was never visible: give back its slot and id.
		delete(s.jobs, j.id)
		if numbered {
			s.nextID--
		}
		s.metrics.add("jobs_rejected", 1)
		// A full queue is transient overload: 429 plus a drain-time
		// estimate distinguishes it from the terminal shutdown 503.
		wait := s.metrics.avgJobDuration()
		if wait <= 0 {
			wait = time.Second
		}
		return &refusal{http.StatusTooManyRequests, wait, fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueDepth)}
	}
}

// answer completes a submission: async callers get 202 immediately (a
// cache hit too, with state done), sync callers wait for the job (or
// give up with their connection, leaving the job running and pollable).
func (s *Server) answer(w http.ResponseWriter, r *http.Request, req *MapRequest, j *job) {
	if req.Async {
		writeView(w, http.StatusAccepted, j)
		return
	}
	select {
	case <-j.done:
		writeView(w, http.StatusOK, j)
	case <-r.Context().Done():
		// Client gave up; the job keeps running and stays pollable.
		writeView(w, http.StatusAccepted, j)
	}
}

// follow makes j a follower of the job already queued or running under
// its key, if there is one, and reports whether it did.
func (s *Server) follow(j *job) bool {
	s.mu.Lock()
	leader, ok := s.inflight[j.cacheKey]
	if !ok {
		s.mu.Unlock()
		return false
	}
	j.coalesced = true
	j.src, j.strashed = nil, nil // only a queued leader maps
	s.registerJobLocked(j)
	s.mu.Unlock()
	s.metrics.add("jobs_coalesced", 1)
	go s.followLeader(j, leader)
	return true
}

// followLeader finishes follower job j with leader's terminal outcome.
// Leaders always finish (Shutdown drains the queue through the workers),
// so the goroutine cannot leak.
func (s *Server) followLeader(j, leader *job) {
	<-leader.done
	state, res, errMsg := leader.outcome()
	wait := time.Since(j.submitted)
	s.hub.Record(j.tc, "service", "coalesced follower wait", j.submitted, wait,
		obs.KV{Key: "ok", Val: boolInt(state == JobDone)})
	s.complete(s.baseCtx, j, TierCoalesced, 0, wait, nil, state, res, errMsg)
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

// registerJobLocked publishes j in the job table, numbering it first
// unless it already has an id (a journal re-admission keeps its own).
func (s *Server) registerJobLocked(j *job) {
	if j.id == "" {
		s.nextID++
		j.id = fmt.Sprintf("j%d", s.nextID)
	}
	s.jobs[j.id] = j
}

// jobFor returns the job the request path names, or answers 404 and
// returns nil.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + id})
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeView(w, http.StatusOK, j)
	}
}

// handleExplain serves the per-request cost attribution of one job:
// which cache tier answered, queue wait, per-phase wall time, strash
// reductions and the answering replica's identity. Attribution is nil
// until the job reaches a terminal state.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.explain())
	}
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
	// The disk tier answers for the LRU here too: a peer asking this
	// replica sees its whole persistent cache, so a freshly-restarted
	// sibling keeps the cluster's shared tier warm.
	b, _ := s.lookupLocal(key)
	if b == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no cached result for key"})
		return
	}
	s.metrics.add("cluster_cache_served", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// peerFetch consults the configured peers' caches for key and returns
// the first hit's result bytes, nil on miss. Each lookup is bounded by
// PeerTimeout and any failure just degrades to a miss — the shared tier
// is an optimization, never a dependency.
func (s *Server) peerFetch(ctx context.Context, key string) []byte {
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

// peerFetchOne asks one peer for a cached result. A reply is accepted
// only if it re-encodes to itself (checkEncoding); any other reply is
// an error, counted like a failed fetch.
func (s *Server) peerFetchOne(ctx context.Context, u string) ([]byte, error) {
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
	if err := checkEncoding(b); err != nil {
		return nil, fmt.Errorf("peer cache: %w", err)
	}
	return b, nil
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
	// through s.complete, which drops the inflight entry before publishing
	// the outcome: followers that attached while it was queued or running
	// get that outcome, and a submission that can already see the job
	// terminal — a client retrying a failure, say — never follows it but
	// finds the result in the cache or runs afresh.
	j.setRunning()
	ctx, cancel := context.WithDeadline(s.baseCtx, j.deadline)
	defer cancel()
	ctx = s.faultCtx(ctx)
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
	// span into the trace hub, and runs with the hub attached, so the
	// pipeline and mapper record their phase spans into it as children
	// of the run span (the hub records no per-node DP spans). Unsampled
	// jobs skip all of it, so the mapper's disabled fast path is
	// untouched.
	if j.tc.Sampled && j.tc.Valid() {
		ctx = obs.WithTraceContext(ctx, j.tc)
		s.hub.Record(j.tc, "service", "queue wait", j.submitted, queueWait)
		var runSpan *obs.ActiveSpan
		ctx, runSpan = s.hub.StartSpan(ctx, "service", "job "+j.algo.Key()+" "+j.circuit)
		ctx = obs.WithTraceHub(ctx, s.hub)
		defer func() { runSpan.End(obs.KV{Key: "dp_tuples", Val: st.TuplesGenerated}) }()
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
		s.logger.Error("job panicked", "request_id", j.reqID, "job_id", j.id,
			"panic", fmt.Sprint(r), "stack", string(stack))
		// The journal keeps the published message verbatim, so a job
		// recovered after a crash serves the error its poller saw.
		msg := fmt.Sprintf("internal panic: %v [%s]", r, redactStack(stack))
		s.complete(ctx, j, TierMiss, queueWait, time.Since(start), st, JobFailed, nil, msg)
	}()

	// A pop fault fails the job before any work is done, so it never
	// discards a computed result.
	if err := faultpoint.From(ctx).Check(ctx, PointQueuePop); err != nil {
		s.complete(ctx, j, TierMiss, queueWait, time.Since(start), st, errState(err), nil, err.Error())
		return
	}

	// Shared cache tier: before paying for a DP run, ask the peer
	// replicas whether one already mapped this key. Mapping is
	// deterministic, so a peer's encoded result is byte-identical to what
	// this replica would compute; any peer failure degrades to a miss.
	if res := s.peerFetch(ctx, j.cacheKey); res != nil {
		s.complete(ctx, j, TierPeer, queueWait, time.Since(start), nil, JobDone, res, "")
		return
	}

	res, err := s.mapFn(ctx, j)
	s.metrics.recordEngine(j.algo.Key(), st)
	if err != nil {
		s.complete(ctx, j, TierMiss, queueWait, time.Since(start), st, errState(err), nil, err.Error())
		return
	}
	s.metrics.observe(j.algo.Key(), time.Since(start))
	b := s.encode(ctx, res)
	s.complete(ctx, j, TierMiss, queueWait, time.Since(start), st, JobDone, b, "")
}

// encode is the one encoding of a result this replica mapped: the bytes
// the LRU holds, the store persists, GET /v1/cache serves and every
// JobView of the job — and of its coalesced followers and later hits —
// splices in. A sampled job records it as an "encode <net>" span.
func (s *Server) encode(ctx context.Context, res *MapResult) []byte {
	_, span := s.hub.StartSpan(ctx, "service", "encode "+res.Source.Name)
	b := encodeResult(res)
	span.End(obs.KV{Key: "bytes", Val: int64(len(b))})
	return b
}

// errState is the terminal state of a job that ended in err.
func errState(err error) JobState {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return JobCanceled
	}
	return JobFailed
}

// complete is every live job's one terminal path: cache hits, coalesced
// followers, and the peer, failure, panic and success ends of runJob.
// res is the result's held encoding, shared by every holder and never
// written to. The tier decides the bookkeeping. A job a worker ran
// (TierMiss or TierPeer) warms the LRU with the bytes — a cache-put
// fault skips only that — then counts, leaves the in-flight table,
// publishes, persists write-behind, journals its terminal state and
// logs one "job finished" line. Persisting after finish means the waiter is answered first; a
// crash before the writes land only costs a re-derivation (the journal
// re-admits, mapping is deterministic). Hits and followers own no work
// to lose: they stop after finish.
func (s *Server) complete(ctx context.Context, j *job, tier string, queueWait, wall time.Duration,
	st *obs.Stats, state JobState, res []byte, errMsg string) {
	ran := tier == TierMiss || tier == TierPeer
	if ran && state == JobDone && faultpoint.From(ctx).Check(ctx, PointCachePut) == nil {
		s.cache.Add(j.cacheKey, res)
	}
	s.metrics.addTerminal(state)
	switch tier {
	case TierLocal:
		s.metrics.add("cache_hits", 1)
	case TierPeer:
		s.metrics.add("cluster_cache_peer_hits", 1)
	}
	if ran {
		s.mu.Lock()
		if s.inflight[j.cacheKey] == j {
			delete(s.inflight, j.cacheKey)
		}
		s.mu.Unlock()
	}
	a := s.attribute(j, tier, queueWait, wall, st)
	if !j.finish(state, res, errMsg, a) || !ran {
		return
	}
	if state == JobDone {
		s.persistResult(ctx, j.cacheKey, res)
	}
	s.journalTerminal(ctx, j, state, errMsg)
	log := s.logger.Info
	if state != JobDone {
		log = s.logger.Warn
	}
	log("job finished",
		"request_id", j.reqID, "job_id", j.id, "circuit", j.circuit,
		"algorithm", j.algo.Key(), "state", string(state), "tier", tier, "error", errMsg,
		"dp_tuples", a.DPTuples, "duration", wall)
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
// was derived from. It is the one code path both the daemon and the
// CLI's -json mode represent.
func mapNetwork(ctx context.Context, j *job) (*MapResult, error) {
	p, err := report.PrepareStrashed(ctx, j.src, j.strashed)
	if err != nil {
		return nil, err
	}
	res, err := p.Map(ctx, j.algo, j.opt, false)
	if err != nil {
		return nil, err
	}
	return NewMapResult(j.circuit, p, res), nil
}
