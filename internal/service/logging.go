package service

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"soidomino/internal/obs"
)

// discardLogger is the default when Config.Logger is nil: logging is
// opt-in, and the many servers the tests spin up stay silent.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// withLogging wraps the API mux with request identification, trace
// propagation and structured access logging. A well-formed incoming
// X-Request-ID (from soirouter or a client) is adopted so router and
// replica log lines join on one id; otherwise a server-unique id is
// minted. Either way it is echoed in the X-Request-ID response header
// and attached to the request context (obs.WithRequestID), from where
// handleMap copies it into the job — so the access line, the job
// lifecycle lines and any mapper trace metadata all correlate.
//
// Trace propagation (obs.SampleRequest): a sampled incoming traceparent
// joins the caller's trace; absent one, or with an unsampled one, every
// TraceSample-th POST /v1/map starts a fresh sampled trace. Sampled
// requests record a server span in the trace hub and log their trace id.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = s.nextRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)

		sample := 0 // only submissions are sampled locally
		if r.Method == http.MethodPost && r.URL.Path == "/v1/map" {
			sample = s.cfg.TraceSample
		}
		tc := obs.SampleRequest(r.Header.Get(obs.TraceparentHeader), sample, &s.traceSeq)
		var reqSpan *obs.ActiveSpan
		if tc.Sampled {
			ctx = obs.WithTraceContext(ctx, tc)
			ctx, reqSpan = s.hub.StartSpan(ctx, "http", r.Method+" "+r.URL.Path)
		}

		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		reqSpan.End(obs.KV{Key: "status", Val: int64(rec.status)})
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", time.Since(start)),
		}
		if tc.Sampled {
			attrs = append(attrs, slog.String("trace_id", tc.TraceID))
		}
		s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
	})
}

// statusRecorder captures the status code and body size for the access
// log line.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}
