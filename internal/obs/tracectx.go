package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the HTTP header carrying a TraceContext between
// processes (soimap → soirouter → soimapd → peer replica). The format is
// the W3C traceparent layout: "00-<32 hex trace id>-<16 hex span id>-<2
// hex flags>", flags bit 0 = sampled.
const TraceparentHeader = "traceparent"

// TraceContext identifies one distributed trace and the caller's position
// in it. TraceID names the whole request tree; SpanID is the span that
// any span started under this context becomes a child of. The zero value
// is "not traced". Trace context rides HTTP headers and context.Context
// only — it must never enter cache keys or routing keys (DESIGN.md §14).
type TraceContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// Valid reports whether the context carries well-formed identifiers.
func (tc TraceContext) Valid() bool {
	return isHex(tc.TraceID, 32) && isHex(tc.SpanID, 16)
}

// Traceparent renders the context as a traceparent header value.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a traceparent header value. It accepts only
// version 00 and lower-case hex; anything else reports ok=false, which
// callers treat as "not traced" rather than an error.
func ParseTraceparent(h string) (TraceContext, bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	tid, sid, flags := h[3:35], h[36:52], h[53:55]
	if !isHex(tid, 32) || !isHex(sid, 16) || !isHex(flags, 2) {
		return TraceContext{}, false
	}
	// All-zero ids are invalid per the W3C spec.
	if tid == "00000000000000000000000000000000" || sid == "0000000000000000" {
		return TraceContext{}, false
	}
	// The sampled flag is bit 0 of the flags byte's hex value, the low
	// bit of its second digit's value (not of that digit's ASCII code).
	return TraceContext{TraceID: tid, SpanID: sid, Sampled: hexValue(flags[1])&1 == 1}, true
}

// SampleRequest is the tracing decision at a process edge (soimapd's
// HTTP middleware, soirouter's POST /v1/map). A request whose
// traceparent header is sampled joins that trace. One with no header, a
// malformed one or an unsampled one is sampled locally: every n-th such
// request (counted in seq; never when n ≤ 0) starts a fresh sampled
// trace. The zero TraceContext means the request is not traced.
func SampleRequest(header string, n int, seq *atomic.Int64) TraceContext {
	if tc, ok := ParseTraceparent(header); ok && tc.Sampled {
		return tc
	}
	if n > 0 && seq.Add(1)%int64(n) == 0 {
		return NewTraceContext()
	}
	return TraceContext{}
}

// hexValue is the value of one lower-case hex digit.
func hexValue(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceContext mints a fresh sampled root context.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
}

// NewTraceID returns a random 32-hex-digit trace identifier.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a random 16-hex-digit span identifier.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on the supported platforms; a counter
		// fallback keeps ids unique (not unguessable) if it ever does.
		fallbackMu.Lock()
		fallbackCtr++
		v := fallbackCtr
		fallbackMu.Unlock()
		for i := range b {
			b[i] = byte(v >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b)
}

var (
	fallbackMu  sync.Mutex
	fallbackCtr uint64
)

// ValidRequestID reports whether an X-Request-ID received from a client
// is safe to adopt: non-empty, bounded, and free of characters that
// could corrupt log lines or headers. soimapd and soirouter mint their
// own id when the incoming one fails this check.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// TraceHub is the one span recorder: it records the spans one process
// makes under sampled trace contexts and retains them keyed by trace id,
// bounded FIFO. soimapd and soirouter keep one per process; `soimap
// -trace` builds a one-trace hub for its run. All methods are
// nil-receiver safe, so an untraced deployment pays one branch per call
// site.
type TraceHub struct {
	process string
	max     int
	// nodeEvery is the per-node DP span interval SampleNode applies; 0,
	// the default, records no per-node spans.
	nodeEvery int

	mu     sync.Mutex
	traces map[string][]Span
	order  []string
}

// NewTraceHub builds a hub identified as process (the Perfetto process
// name) retaining at most maxTraces distinct trace ids (≤0 → 64); the
// oldest trace is evicted when a new id arrives at capacity.
func NewTraceHub(process string, maxTraces int) *TraceHub {
	if maxTraces <= 0 {
		maxTraces = 64
	}
	return &TraceHub{process: process, max: maxTraces, traces: make(map[string][]Span)}
}

// SampleNodes turns on per-node DP spans: every n-th node (n ≤ 1: every
// node) is recorded. Phase spans are never sampled away; the per-node
// firehose is what the interval bounds. Call it before the hub is
// shared.
func (h *TraceHub) SampleNodes(n int) {
	h.nodeEvery = max(n, 1)
}

// SampleNode reports whether the DP span of node id is recorded: false
// on a nil hub and on one without SampleNodes.
func (h *TraceHub) SampleNode(id int) bool {
	return h != nil && h.nodeEvery > 0 && id%h.nodeEvery == 0
}

// add records one span. Spans without a valid trace id are dropped.
func (h *TraceHub) add(s Span) {
	if h == nil || !isHex(s.TraceID, 32) {
		return
	}
	if s.Process == "" {
		s.Process = h.process
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.traces[s.TraceID]; !ok {
		if len(h.order) >= h.max {
			delete(h.traces, h.order[0])
			h.order = h.order[1:]
		}
		h.order = append(h.order, s.TraceID)
	}
	h.traces[s.TraceID] = append(h.traces[s.TraceID], s)
}

// Spans returns a copy of the spans recorded under traceID (nil if the
// trace is unknown or the hub is nil).
func (h *TraceHub) Spans(traceID string) []Span {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	spans := h.traces[traceID]
	if len(spans) == 0 {
		return nil
	}
	out := make([]Span, len(spans))
	copy(out, spans)
	return out
}

// Len returns the number of distinct traces retained.
func (h *TraceHub) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.traces)
}

// Record appends one span measured externally (e.g. queue wait computed
// from job timestamps). The span's parent is tc.SpanID. No-op when the
// hub is nil or the context is unsampled/invalid.
func (h *TraceHub) Record(tc TraceContext, cat, name string, start time.Time, d time.Duration, kv ...KV) {
	if h == nil || !tc.Sampled || !tc.Valid() {
		return
	}
	if d < 0 {
		d = 0
	}
	h.add(Span{
		TraceID:  tc.TraceID,
		SpanID:   NewSpanID(),
		ParentID: tc.SpanID,
		Process:  h.process,
		Cat:      cat,
		Name:     name,
		StartUS:  start.UnixMicro(),
		DurUS:    d.Microseconds(),
		Args:     kv,
	})
}

// ActiveSpan is an open span returned by StartSpan; End records it. All
// methods accept a nil receiver (the unsampled span).
type ActiveSpan struct {
	hub    *TraceHub
	tc     TraceContext // SpanID = this span's own id
	parent string
	cat    string
	name   string
	start  time.Time
}

// StartSpan opens a span as a child of the context's trace context and
// returns a derived context whose trace context parents under the new
// span — downstream StartSpan calls and outgoing traceparent headers
// nest correctly. When the hub is nil or the context is unsampled the
// original context and a nil span are returned.
func (h *TraceHub) StartSpan(ctx context.Context, cat, name string) (context.Context, *ActiveSpan) {
	tc := TraceContextFrom(ctx)
	if h == nil || !tc.Sampled || !tc.Valid() {
		return ctx, nil
	}
	child := TraceContext{TraceID: tc.TraceID, SpanID: NewSpanID(), Sampled: true}
	sp := &ActiveSpan{
		hub:   h,
		tc:    child,
		cat:   cat,
		name:  name,
		start: time.Now(),
	}
	sp.parent = tc.SpanID
	return WithTraceContext(ctx, child), sp
}

// End records the span with the given args. Safe on nil; calling End
// twice records the span twice, so call it once.
func (a *ActiveSpan) End(kv ...KV) {
	if a == nil {
		return
	}
	a.hub.add(Span{
		TraceID:  a.tc.TraceID,
		SpanID:   a.tc.SpanID,
		ParentID: a.parent,
		Process:  a.hub.process,
		Cat:      a.cat,
		Name:     a.name,
		StartUS:  a.start.UnixMicro(),
		DurUS:    time.Since(a.start).Microseconds(),
		Args:     kv,
	})
}
