package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// KV is one integer argument attached to a span. Chrome's trace format
// allows arbitrary JSON args; the DP only ever attaches counters, so a
// flat int pair keeps span recording allocation-light.
type KV struct {
	Key string
	Val int64
}

// Span is one completed trace span with absolute wall-clock timestamps,
// so spans recorded by different processes stitch into one timeline. It
// is the only span type: a Tracer records it in-process, a TraceHub
// retains it per trace id, WriteSpans renders it, and it is the wire
// format of GET /v1/traces/{id}?raw=1 — the router fetches raw spans
// from every replica and renders the union. Spans recorded outside a
// distributed trace (the soimap CLI) leave the id fields empty.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Process  string `json:"process"`
	Cat      string `json:"cat"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"` // µs since the Unix epoch
	DurUS    int64  `json:"dur_us"`
	Args     []KV   `json:"args,omitempty"`
}

// Tracer records the spans of one (or several sequential) mapping runs:
// the report pipeline's and the mapper engine's phase spans, run
// instants (zero-duration spans) and sampled per-node DP spans.
// Recording methods are nil-receiver safe; a nil *Tracer is the disabled
// tracer. The tracer is internally locked so the daemon can share one
// across phases.
type Tracer struct {
	sample int
	// parent, when sampled, places every recorded span in a distributed
	// trace: its trace id, a fresh span id, and parent under its span.
	parent  TraceContext
	process string

	mu    sync.Mutex
	spans []Span
}

// NewTracer builds a tracer that records every sampleEvery-th per-node DP
// span (1 or less records all of them). Phase spans and instants are
// never sampled away — a full trace of an MCNC-sized circuit is a few
// thousand spans, but the per-node firehose is what the knob bounds.
func NewTracer(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{sample: sampleEvery}
}

// Tracer builds a tracer whose spans join the context's distributed
// trace as children of its current span, stamped with the hub's process
// name, ready for Add. A nil hub or an unsampled context returns the nil
// (disabled) tracer.
func (h *TraceHub) Tracer(ctx context.Context, sampleEvery int) *Tracer {
	tc := TraceContextFrom(ctx)
	if h == nil || !tc.Sampled || !tc.Valid() {
		return nil
	}
	t := NewTracer(sampleEvery)
	t.parent, t.process = tc, h.process
	return t
}

// SampleNode reports whether per-node spans for node id should be
// recorded under the sampling knob.
func (t *Tracer) SampleNode(id int) bool {
	return t != nil && (t.sample <= 1 || id%t.sample == 0)
}

// Now returns the tracer's clock reading, the start argument for a later
// Span. The zero time is returned on a nil tracer so disabled call sites
// stay branch-free.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a completed span from start to now. kv values are attached
// as span args (shown in the Perfetto side panel).
func (t *Tracer) Span(cat, name string, start time.Time, kv ...KV) {
	if t == nil {
		return
	}
	t.record(cat, name, start, time.Now(), kv)
}

// Instant records a zero-duration marker span.
func (t *Tracer) Instant(cat, name string, kv ...KV) {
	if t == nil {
		return
	}
	now := time.Now()
	t.record(cat, name, now, now, kv)
}

func (t *Tracer) record(cat, name string, start, end time.Time, kv []KV) {
	s := Span{
		Process: t.process,
		Cat:     cat,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   end.Sub(start).Microseconds(),
		Args:    kv,
	}
	if t.parent.Sampled {
		s.TraceID, s.SpanID, s.ParentID = t.parent.TraceID, NewSpanID(), t.parent.SpanID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in recording order (nil on
// a nil tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// chromeSpanEvent is the Chrome trace-event rendering of one Span.
type chromeSpanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMetaEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteSpans renders spans — one CLI run's, or the union of several
// processes' hubs for one trace id — as a Chrome trace-event JSON object,
// loadable at ui.perfetto.dev or chrome://tracing. Each distinct Process
// gets its own pid (assigned in sorted order, so the rendering is
// deterministic for a fixed span set) with a process_name metadata
// record unless the name is empty; spans sort stably by (pid, start,
// span id). Timestamps stay absolute epoch-µs, which Perfetto
// normalizes.
func WriteSpans(w io.Writer, spans []Span) error {
	procs := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := procs[s.Process]; !ok {
			procs[s.Process] = 0
			names = append(names, s.Process)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		procs[n] = i + 1
	}

	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if pa, pb := procs[a.Process], procs[b.Process]; pa != pb {
			return pa < pb
		}
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		return a.SpanID < b.SpanID
	})

	events := make([]any, 0, len(sorted)+len(names))
	for _, n := range names {
		if n == "" {
			continue
		}
		events = append(events, chromeMetaEvent{
			Name: "process_name", Ph: "M", Pid: procs[n], Tid: 1,
			Args: map[string]any{"name": n},
		})
	}
	for _, s := range sorted {
		args := make(map[string]any, len(s.Args)+2)
		if s.SpanID != "" {
			args["span_id"] = s.SpanID
		}
		if s.ParentID != "" {
			args["parent_id"] = s.ParentID
		}
		for _, kv := range s.Args {
			args[kv.Key] = kv.Val
		}
		events = append(events, chromeSpanEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Pid: procs[s.Process], Tid: 1,
			TS: s.StartUS, Dur: s.DurUS, Args: args,
		})
	}

	doc := struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}
