package obs

import (
	"encoding/json"
	"io"
	"sort"
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
// is the only span type: a TraceHub records and retains it per trace
// id, WriteSpans renders it, and it is the wire format of
// GET /v1/traces/{id}?raw=1 — the router fetches raw spans from every
// replica and renders the union.
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
