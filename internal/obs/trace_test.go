package obs

import (
	"bytes"
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

// renderTrace renders the tracer's spans through WriteSpans and parses
// the result back.
func renderTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr.Spans()); err != nil {
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

// TestTracerSpansRenderAsChromeTrace: a CLI tracer's spans (no trace
// context) render through WriteSpans as a valid Chrome trace with
// absolute timestamps, the instant as a zero-duration span, recording
// order kept, and no process metadata or empty span ids.
func TestTracerSpansRenderAsChromeTrace(t *testing.T) {
	before := time.Now().UnixMicro()
	tr := NewTracer(1)
	start := tr.Now()
	tr.Instant("mapper", "run", KV{"nodes", 42})
	tr.Span("dp", "node 3 And", start, KV{"kept", 2}, KV{"cands_a", 5})

	got := renderTrace(t, tr)
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(got.TraceEvents))
	}
	// Sorted by start: the span started first, unless both share a µs,
	// where the stable sort keeps recording order (instant first).
	in, sp := got.TraceEvents[0], got.TraceEvents[1]
	if in.TS < sp.TS {
		in, sp = sp, in
	}
	if in.Name != "run" || in.Ph != "X" || in.Dur == nil || *in.Dur != 0 || in.Args["nodes"] != float64(42) {
		t.Errorf("instant event wrong: %+v", in)
	}
	if sp.Ph != "X" || sp.Dur == nil || sp.Cat != "dp" || sp.Name != "node 3 And" {
		t.Errorf("span event wrong: %+v", sp)
	}
	if sp.Args["kept"] != float64(2) || sp.Args["cands_a"] != float64(5) || len(sp.Args) != 2 {
		t.Errorf("span args wrong: %+v", sp.Args)
	}
	if sp.TS < before {
		t.Errorf("timestamp %d not absolute epoch µs after %d", sp.TS, before)
	}
	if in.Pid != 1 || in.Tid != 1 {
		t.Errorf("pid/tid = %d/%d, want 1/1", in.Pid, in.Tid)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3)
	recorded := 0
	for id := 0; id < 12; id++ {
		if tr.SampleNode(id) {
			recorded++
		}
	}
	if recorded != 4 { // ids 0, 3, 6, 9
		t.Errorf("sample=3 recorded %d of 12 nodes, want 4", recorded)
	}
	// sampleEvery <= 1 records everything.
	all := NewTracer(0)
	for id := 0; id < 5; id++ {
		if !all.SampleNode(id) {
			t.Fatalf("sample<=1 skipped node %d", id)
		}
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.SampleNode(0) {
		t.Error("nil tracer samples nodes")
	}
	if !tr.Now().IsZero() {
		t.Error("nil tracer Now() is not the zero time")
	}
	tr.Span("c", "n", time.Time{})
	tr.Instant("c", "n")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}
	if got := renderTrace(t, tr); len(got.TraceEvents) != 0 {
		t.Errorf("nil tracer rendered %d events", len(got.TraceEvents))
	}
}
