package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const (
	testTID = "0123456789abcdef0123456789abcdef"
	testSID = "0123456789abcdef"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() || !tc.Sampled {
		t.Fatalf("NewTraceContext() = %+v, want valid and sampled", tc)
	}
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%t, want %+v", got, ok, tc)
	}
	tc.Sampled = false
	got, ok = ParseTraceparent(tc.Traceparent())
	if !ok || got != tc {
		t.Fatalf("unsampled round trip: got %+v ok=%t, want %+v", got, ok, tc)
	}
	if h := tc.Traceparent(); !strings.HasSuffix(h, "-00") {
		t.Fatalf("unsampled flags: %q", h)
	}
}

// TestParseTraceparentSampledBit: the sampled flag is bit 0 of the
// flags byte's hex value, whatever its other bits hold.
func TestParseTraceparentSampledBit(t *testing.T) {
	for _, c := range []struct {
		flags   string
		sampled bool
	}{
		{"00", false}, {"01", true}, {"02", false}, {"03", true},
		{"0a", false}, {"0b", true}, {"ff", true},
	} {
		got, ok := ParseTraceparent("00-" + testTID + "-" + testSID + "-" + c.flags)
		if !ok || got.Sampled != c.sampled {
			t.Errorf("flags %s: ok=%t sampled=%t, want sampled=%t", c.flags, ok, got.Sampled, c.sampled)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-" + testTID + "-" + testSID + "-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("fixture %q must parse", valid)
	}
	bad := []string{
		"",
		"00",
		valid[:54],             // one byte short
		valid + "0",            // one byte long
		"01" + valid[2:],       // unknown version
		strings.ToUpper(valid), // upper-case hex
		"00-00000000000000000000000000000000-" + testSID + "-01", // zero trace id
		"00-" + testTID + "-0000000000000000-01",                 // zero span id
		"00_" + testTID + "-" + testSID + "-01",                  // bad separator
		"00-" + testTID[:31] + "g-" + testSID + "-01",            // non-hex digit
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

// TestSampleRequest: the edge decision joins a sampled caller, and
// treats an unsampled or malformed header like none — sampled locally
// on every n-th such request, never with n ≤ 0.
func TestSampleRequest(t *testing.T) {
	caller := NewTraceContext()
	unsampled := caller
	unsampled.Sampled = false
	var seq atomic.Int64
	if got := SampleRequest(caller.Traceparent(), 0, &seq); got != caller {
		t.Fatalf("sampled header: got %+v, want the caller's %+v", got, caller)
	}
	for _, h := range []string{"", "junk", unsampled.Traceparent()} {
		if got := SampleRequest(h, 0, &seq); got != (TraceContext{}) {
			t.Fatalf("header %q with local sampling off: got %+v, want untraced", h, got)
		}
		got := SampleRequest(h, 1, &seq)
		if !got.Sampled || !got.Valid() || got.TraceID == caller.TraceID {
			t.Fatalf("header %q with sample 1: got %+v, want a fresh sampled trace", h, got)
		}
	}
	seq.Store(0)
	sampled := 0
	for range 6 {
		if SampleRequest(unsampled.Traceparent(), 3, &seq).Sampled {
			sampled++
		}
	}
	if sampled != 2 {
		t.Fatalf("sample 3 traced %d of 6 unsampled requests, want 2", sampled)
	}
}

func TestValidRequestID(t *testing.T) {
	for _, id := range []string{"r000001", "rr42.abc", "a_b-c:d", "X9"} {
		if !ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = false", id)
		}
	}
	for _, id := range []string{"", strings.Repeat("a", 65), "has space", "bad\nnewline", `quo"te`} {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true", id)
		}
	}
}

func testTraceID(i byte) string { return strings.Repeat(fmt.Sprintf("%02x", i), 16) }

func TestTraceHubFIFOEviction(t *testing.T) {
	h := NewTraceHub("p", 2)
	t1, t2, t3 := testTraceID(1), testTraceID(2), testTraceID(3)
	h.add(Span{TraceID: t1, SpanID: testSID, Name: "a"})
	h.add(Span{TraceID: t2, SpanID: testSID, Name: "b"})
	h.add(Span{TraceID: t2, SpanID: testSID, Name: "b2"}) // same trace: no eviction
	h.add(Span{TraceID: "not-a-trace-id"})                // invalid: dropped
	if h.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", h.Len())
	}
	h.add(Span{TraceID: t3, SpanID: testSID, Name: "c"}) // at capacity: evicts t1
	if h.Len() != 2 {
		t.Fatalf("Len() after eviction = %d, want 2", h.Len())
	}
	if got := h.Spans(t1); got != nil {
		t.Fatalf("evicted trace still present: %v", got)
	}
	if got := h.Spans(t2); len(got) != 2 {
		t.Fatalf("survivor trace spans = %v, want 2", got)
	}
	if got := h.Spans(t3); len(got) != 1 || got[0].Process != "p" {
		t.Fatalf("new trace spans = %+v, want 1 span with the hub's process filled in", got)
	}
}

func TestStartSpanNesting(t *testing.T) {
	h := NewTraceHub("svc", 4)
	root := NewTraceContext()
	ctx := WithTraceContext(context.Background(), root)

	ctx1, outer := h.StartSpan(ctx, "c", "outer")
	if outer == nil {
		t.Fatal("sampled StartSpan returned no span")
	}
	_, inner := h.StartSpan(ctx1, "c", "inner")
	inner.End()
	outer.End(KV{Key: "k", Val: 1})

	spans := h.Spans(root.TraceID)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["outer"].ParentID != root.SpanID {
		t.Fatalf("outer parent %q, want the root context's span %q", byName["outer"].ParentID, root.SpanID)
	}
	if TraceContextFrom(ctx1).SpanID != byName["outer"].SpanID {
		t.Fatal("derived context must parent under the new span")
	}
	if byName["inner"].ParentID != byName["outer"].SpanID {
		t.Fatalf("inner parent %q, want outer span %q", byName["inner"].ParentID, byName["outer"].SpanID)
	}

	// Unsampled context: no span, original context, End is a no-op.
	plain := context.Background()
	gotCtx, sp := h.StartSpan(plain, "c", "untraced")
	if sp != nil || gotCtx != plain {
		t.Fatal("unsampled StartSpan must return (same ctx, nil)")
	}
	sp.End()

	// Nil hub: everything is inert.
	var nh *TraceHub
	_, nsp := nh.StartSpan(ctx, "c", "x")
	nsp.End()
	nh.Record(root, "c", "x", time.Now(), time.Second)
	nh.add(Span{TraceID: root.TraceID})
	if nh.Len() != 0 || nh.Spans(root.TraceID) != nil {
		t.Fatal("nil hub must be inert")
	}

	// Unsampled Record is a no-op; negative durations clamp to zero.
	h.Record(TraceContext{TraceID: root.TraceID, SpanID: root.SpanID}, "c", "skip", time.Now(), time.Second)
	h.Record(root, "c", "clamped", time.Now(), -time.Second)
	spans = h.Spans(root.TraceID)
	for _, s := range spans {
		if s.Name == "skip" {
			t.Fatal("unsampled Record must not record")
		}
		if s.Name == "clamped" && s.DurUS != 0 {
			t.Fatalf("negative duration recorded as %dµs, want 0", s.DurUS)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
}

// TestRunPhaseStampsTraceContext: a phase run under a hub and a sampled
// context is recorded straight into the hub as a distributed span —
// trace id, fresh span id, the context's span as parent, the hub's
// process, an absolute epoch-µs start — with the duration charged to
// Stats, read off the same clock.
func TestRunPhaseStampsTraceContext(t *testing.T) {
	h := NewTraceHub("replica-0", 4)
	tc := NewTraceContext()
	st := &Stats{}
	ctx := WithStats(WithTraceContext(WithTraceHub(context.Background(), h), tc), st)
	sentinel := errors.New("boom")
	spin := func() {
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	}
	if err := RunPhase(ctx, PhaseDecompose, "pipeline", "decompose net", func() error { spin(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := RunPhase(ctx, PhaseDP, "mapper", "soi dp", func() error { spin(); return sentinel }); err != sentinel {
		t.Fatalf("RunPhase err = %v, want the phase's own error", err)
	}
	spans := h.Spans(tc.TraceID)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	want := map[string]time.Duration{"decompose net": st.Phases.Decompose, "soi dp": st.Phases.DP}
	ids := map[string]bool{}
	for _, s := range spans {
		if s.TraceID != tc.TraceID || s.ParentID != tc.SpanID || s.Process != "replica-0" {
			t.Fatalf("span %+v not parented under %+v", s, tc)
		}
		if !isHex(s.SpanID, 16) || ids[s.SpanID] {
			t.Fatalf("span %q has id %q, want a fresh 16-hex id", s.Name, s.SpanID)
		}
		ids[s.SpanID] = true
		if s.StartUS < time.Now().Add(-time.Minute).UnixMicro() {
			t.Fatalf("span %q has relative timestamp %d, want absolute epoch µs", s.Name, s.StartUS)
		}
		if d := want[s.Name]; d <= 0 || s.DurUS != d.Microseconds() {
			t.Fatalf("span %q lasts %dµs, Stats charged %v: one clock must feed both", s.Name, s.DurUS, d)
		}
	}
}

func TestWriteSpansDeterministicChrome(t *testing.T) {
	// Deliberately out of order: process "b" first, later start first.
	spans := []Span{
		{TraceID: testTID, SpanID: "000000000000000b", Process: "b", Cat: "svc", Name: "late", StartUS: 200, DurUS: 5},
		{TraceID: testTID, SpanID: "000000000000000a", Process: "b", Cat: "svc", Name: "early", StartUS: 100, DurUS: 5, ParentID: testSID},
		{TraceID: testTID, SpanID: "000000000000000c", Process: "a", Cat: "rt", Name: "root", StartUS: 150, DurUS: 50, Args: []KV{{Key: "failover", Val: 1}}},
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteSpans(&buf1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(&buf2, spans); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("WriteSpans is not deterministic for a fixed span set")
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			TS   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf1.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 5 { // 2 process_name metas + 3 spans
		t.Fatalf("rendered %d events, want 5", len(doc.TraceEvents))
	}
	// Metadata first; processes get pids in sorted-name order.
	procByPid := map[int]string{}
	for _, e := range doc.TraceEvents[:2] {
		if e.Ph != "M" || e.Name != "process_name" {
			t.Fatalf("event %+v, want process_name metadata first", e)
		}
		procByPid[e.Pid] = e.Args["name"].(string)
	}
	if procByPid[1] != "a" || procByPid[2] != "b" {
		t.Fatalf("pid assignment %v, want a=1, b=2 (sorted)", procByPid)
	}
	// Spans sorted by (pid, start): a/root, then b/early, b/late.
	var order []string
	for _, e := range doc.TraceEvents[2:] {
		if e.Ph != "X" {
			t.Fatalf("span event %+v, want ph X", e)
		}
		order = append(order, e.Name)
	}
	if order[0] != "root" || order[1] != "early" || order[2] != "late" {
		t.Fatalf("span order %v, want [root early late]", order)
	}
	// Span args carry identity plus the recorded KVs.
	rootArgs := doc.TraceEvents[2].Args
	if rootArgs["span_id"] != "000000000000000c" || rootArgs["failover"] != float64(1) {
		t.Fatalf("root span args %v", rootArgs)
	}
	earlyArgs := doc.TraceEvents[3].Args
	if earlyArgs["parent_id"] != testSID {
		t.Fatalf("early span args %v, want parent_id %s", earlyArgs, testSID)
	}
}
