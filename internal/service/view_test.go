package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
)

// encoderJSON is how soimapd rendered every JobView before the held
// result bytes were spliced in: json.Encoder with SetIndent("", "  ").
func encoderJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkEnvelope decodes a response body and, when it is a job view (an
// error body has no id), fails unless the body is byte for byte what
// encoderJSON writes for the view it decodes to: a missing, extra,
// reordered or differently escaped field does not survive the round
// trip. The HTTP test helpers decode every POST /v1/map and
// GET /v1/jobs/{id} answer through it.
func checkEnvelope(tb testing.TB, body []byte) JobView {
	tb.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		tb.Fatalf("decode response: %v", err)
	}
	if v.ID != "" {
		if want := encoderJSON(tb, v); !bytes.Equal(body, want) {
			tb.Fatalf("job view bytes differ from json.Encoder's:\ngot:\n%s\nwant:\n%s", body, want)
		}
	}
	return v
}

// TestJobViewEnvelope holds writeView to the encoding it replaced: for a
// job in each state, answered from each tier, with and without a trace
// and an attribution, the bytes must equal json.Encoder's rendering of
// the same JobView carrying the *MapResult, decoded as a client reads
// it (json.Encoder sees only its exported fields).
func TestJobViewEnvelope(t *testing.T) {
	mapped, err := mapSubmission("mux", builtin.MustBuild("mux"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	held := mustEncode(t, mapped)
	r := decoded(t, mapped)
	attr := func(tier string, st *obs.Stats) *Attribution {
		return NewAttribution("replica <1> & co", "", tier, 1500*time.Microsecond, 12345*time.Microsecond, st)
	}
	ran := &obs.Stats{TuplesGenerated: 77, StrashMerged: 3}
	ran.Phases.DP = 2 * time.Millisecond
	ran.Phases.Audit = 7 * time.Microsecond
	sampled := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	started := time.Now().Add(-1500 * time.Millisecond)

	for _, tc := range []struct {
		name  string
		setup func(j *job)
	}{
		{"queued", func(j *job) {}},
		{"running", func(j *job) { j.state, j.started = JobRunning, started }},
		{"running traced", func(j *job) { j.state, j.started, j.tc = JobRunning, started, sampled }},
		{"done miss", func(j *job) { j.finish(JobDone, held, "", attr(TierMiss, ran)) }},
		{"done miss traced", func(j *job) {
			j.tc = sampled
			a := attr(TierMiss, ran)
			a.TraceID = sampled.TraceID
			j.finish(JobDone, held, "", a)
		}},
		{"done local hit", func(j *job) { j.finish(JobDone, held, "", attr(TierLocal, nil)) }},
		{"done peer hit", func(j *job) { j.finish(JobDone, held, "", attr(TierPeer, nil)) }},
		{"done coalesced", func(j *job) {
			j.coalesced = true
			j.finish(JobDone, held, "", attr(TierCoalesced, nil))
		}},
		{"done recovered", func(j *job) {
			j.recovered = true
			j.finish(JobDone, held, "", attr(TierStore, nil))
		}},
		{"failed", func(j *job) {
			j.started = started
			j.finish(JobFailed, nil, "report: <SOI> on \"mux\" & \u2028\xff\x01", attr(TierMiss, ran))
		}},
		{"canceled coalesced", func(j *job) {
			j.coalesced = true
			j.finish(JobCanceled, nil, "context deadline exceeded", attr(TierCoalesced, nil))
		}},
		{"failed recovered", func(j *job) {
			j.recovered = true
			j.finish(JobFailed, nil, "not re-admitted after restart: queue full", attr(TierStore, nil))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := &job{id: "j7", circuit: "mux\t<&>", algo: report.SOI, state: JobQueued, done: make(chan struct{})}
			tc.setup(j)
			for _, status := range []int{http.StatusOK, http.StatusAccepted} {
				rec := httptest.NewRecorder()
				writeView(rec, status, j)
				if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("status %d content type %q", rec.Code, rec.Header().Get("Content-Type"))
				}
				v, res := j.view()
				if res != nil {
					v.Result = r
				}
				if j.state == JobRunning {
					// A running job's elapsed time moves between the two
					// snapshots; take the written one.
					var got JobView
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
						t.Fatal(err)
					}
					v.ElapsedMS = got.ElapsedMS
				}
				if want := encoderJSON(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("writeView:\n%s\njson.Encoder:\n%s", rec.Body.Bytes(), want)
				}
			}
		})
	}
}
