package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeTrace mirrors the subset of the Chrome trace-event format
// WriteSpans emits, for round-trip validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Dur  *int64         `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// renderTrace renders spans through WriteSpans and parses the result
// back.
func renderTrace(t *testing.T, spans []Span) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), `"span_id":""`) {
		t.Errorf("empty span id rendered:\n%s", buf.String())
	}
	return got
}

// TestTracerSpansRenderAsChromeTrace: the spans of a CLI run — a
// one-trace hub named soimap under a fresh root context, as `soimap
// -trace` builds it — render through WriteSpans as a valid Chrome trace
// with absolute timestamps, the instant as a zero-duration span, a
// soimap process track, and span_id/parent_id args.
func TestTracerSpansRenderAsChromeTrace(t *testing.T) {
	before := time.Now().UnixMicro()
	h, tc := NewTraceHub("soimap", 1), NewTraceContext()
	start := time.Now()
	h.Record(tc, "mapper", "run", time.Now(), 0, KV{"nodes", 42})
	h.Record(tc, "dp", "node 3 And", start, time.Since(start), KV{"kept", 2}, KV{"cands_a", 5})

	got := renderTrace(t, h.Spans(tc.TraceID))
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("got %d events, want the process track and 2 spans", len(got.TraceEvents))
	}
	if m := got.TraceEvents[0]; m.Ph != "M" || m.Name != "process_name" || m.Args["name"] != "soimap" {
		t.Errorf("first event %+v, want the soimap process_name metadata", m)
	}
	// Sorted by start, then by span id: the instant, recorded second,
	// comes second unless both share a µs.
	sp, in := got.TraceEvents[1], got.TraceEvents[2]
	if sp.TS > in.TS {
		t.Errorf("events out of start order: %d after %d", sp.TS, in.TS)
	}
	if in.Name != "run" {
		in, sp = sp, in
	}
	if in.Name != "run" || in.Ph != "X" || in.Dur == nil || *in.Dur != 0 || in.Args["nodes"] != float64(42) {
		t.Errorf("instant event wrong: %+v", in)
	}
	if sp.Ph != "X" || sp.Dur == nil || sp.Cat != "dp" || sp.Name != "node 3 And" {
		t.Errorf("span event wrong: %+v", sp)
	}
	if sp.Args["kept"] != float64(2) || sp.Args["cands_a"] != float64(5) || len(sp.Args) != 4 {
		t.Errorf("span args wrong: %+v", sp.Args)
	}
	if sp.Args["parent_id"] != tc.SpanID || sp.Args["span_id"] == in.Args["span_id"] {
		t.Errorf("span ids wrong: %+v and %+v under root %s", sp.Args, in.Args, tc.SpanID)
	}
	if sp.TS < before {
		t.Errorf("timestamp %d not absolute epoch µs after %d", sp.TS, before)
	}
	if in.Pid != 1 || in.Tid != 1 {
		t.Errorf("pid/tid = %d/%d, want 1/1", in.Pid, in.Tid)
	}
}

// TestTracerSampling: the hub, the one span recorder, records every
// n-th node's DP span once SampleNodes(n) is set, and none before.
func TestTracerSampling(t *testing.T) {
	h := NewTraceHub("p", 1)
	for id := 0; id < 12; id++ {
		if h.SampleNode(id) {
			t.Fatalf("hub without SampleNodes samples node %d", id)
		}
	}
	h.SampleNodes(3)
	recorded := 0
	for id := 0; id < 12; id++ {
		if h.SampleNode(id) {
			recorded++
		}
	}
	if recorded != 4 { // ids 0, 3, 6, 9
		t.Errorf("sample=3 recorded %d of 12 nodes, want 4", recorded)
	}
	// An interval of 1 or less records everything.
	h.SampleNodes(0)
	for id := 0; id < 5; id++ {
		if !h.SampleNode(id) {
			t.Fatalf("sample<=1 skipped node %d", id)
		}
	}
}

// TestNilTracerIsDisabled: with no hub, a nil hub or no sampled trace,
// the context's recorder is the nil hub, which records nothing, and
// RunPhase without Stats just runs f.
func TestNilTracerIsDisabled(t *testing.T) {
	tc := NewTraceContext()
	unsampled := tc
	unsampled.Sampled = false
	for name, ctx := range map[string]context.Context{
		"no hub":      WithTraceContext(context.Background(), tc),
		"nil hub":     WithTraceContext(WithTraceHub(context.Background(), nil), tc),
		"no trace":    WithTraceHub(context.Background(), NewTraceHub("p", 1)),
		"unsampled":   WithTraceContext(WithTraceHub(context.Background(), NewTraceHub("p", 1)), unsampled),
		"invalid ids": WithTraceContext(WithTraceHub(context.Background(), NewTraceHub("p", 1)), TraceContext{Sampled: true}),
	} {
		if h, _ := TracingFrom(ctx); h != nil {
			t.Errorf("%s: TracingFrom returned a live hub", name)
		}
		ran := false
		if err := RunPhase(ctx, PhaseDP, "c", "n", func() error { ran = true; return nil }); err != nil || !ran {
			t.Errorf("%s: RunPhase ran=%v err=%v", name, ran, err)
		}
	}
	var h *TraceHub
	if h.SampleNode(0) {
		t.Error("nil hub samples nodes")
	}
	h.Record(tc, "c", "n", time.Now(), time.Second)
	if h.Len() != 0 || h.Spans(tc.TraceID) != nil {
		t.Error("nil hub has spans")
	}
	if got := renderTrace(t, h.Spans(tc.TraceID)); len(got.TraceEvents) != 0 {
		t.Errorf("nil hub rendered %d events", len(got.TraceEvents))
	}
}
