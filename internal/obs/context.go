package obs

import "context"

type ctxKey uint8

const (
	statsKey ctxKey = iota
	hubKey
	requestIDKey
	traceCtxKey
)

// WithStats attaches a per-run stats collector to the context. The mapper
// engine and report.PrepareNetworkContext record into it; a context
// without one (or with nil) disables collection.
func WithStats(ctx context.Context, s *Stats) context.Context {
	return context.WithValue(ctx, statsKey, s)
}

// StatsFrom returns the context's stats collector, or nil (the disabled
// collector — every Stats method accepts a nil receiver).
func StatsFrom(ctx context.Context) *Stats {
	s, _ := ctx.Value(statsKey).(*Stats)
	return s
}

// WithTraceHub attaches the span recorder the pipeline and the mapper
// record into, under the context's TraceContext.
func WithTraceHub(ctx context.Context, h *TraceHub) context.Context {
	return context.WithValue(ctx, hubKey, h)
}

// TracingFrom returns the context's trace hub and the trace context its
// spans record under, or a nil hub when the context carries no hub or
// no sampled trace — the disabled recorder, since every TraceHub method
// accepts a nil receiver.
func TracingFrom(ctx context.Context) (*TraceHub, TraceContext) {
	h, _ := ctx.Value(hubKey).(*TraceHub)
	if h == nil {
		return nil, TraceContext{}
	}
	tc := TraceContextFrom(ctx)
	if !tc.Sampled || !tc.Valid() {
		return nil, TraceContext{}
	}
	return h, tc
}

// WithRequestID attaches a request identifier to the context. soimapd's
// request-logging middleware sets one per HTTP request and the job runner
// re-attaches it to the mapping context, so slog lines, job lifecycle
// events and mapper trace metadata all correlate on the same id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request identifier, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// WithTraceContext attaches a distributed-trace context. The HTTP
// middleware sets it from an incoming traceparent header (or a local
// sampling decision); TraceHub.StartSpan re-attaches a child context so
// nested spans and outgoing headers parent correctly.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey, tc)
}

// TraceContextFrom returns the context's trace context, or the zero
// (untraced) value.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceCtxKey).(TraceContext)
	return tc
}
