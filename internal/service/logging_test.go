package service

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"soidomino/internal/obs"
)

// syncBuffer lets the handler goroutines and the test share one log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitJobFinished waits for a "job finished" line in sink and returns
// the log so far. complete writes that line after the job's persist and
// terminal journal append, which run behind the answer to the waiter.
func waitJobFinished(t *testing.T, sink *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		logs := sink.String()
		if strings.Contains(logs, `msg="job finished"`) {
			return logs
		}
		if time.Now().After(deadline) {
			t.Fatalf("job lifecycle line missing:\n%s", logs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestIDAndAccessLog pins the request-correlation contract: every
// response carries X-Request-ID, the access log line carries the same id,
// and the id reaches the job's lifecycle log lines.
func TestRequestIDAndAccessLog(t *testing.T) {
	var sink syncBuffer
	logger := slog.New(slog.NewTextHandler(&sink, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}

	if code, v := postMap(t, ts, `{"circuit": "mux"}`); v.State != JobDone {
		t.Fatalf("map failed: code %d, state %s (%s)", code, v.State, v.Error)
	}

	logs := waitJobFinished(t, &sink)
	if !strings.Contains(logs, "request_id="+id) {
		t.Errorf("access log missing request_id=%s:\n%s", id, logs)
	}
	// The job line must carry the submitting request's id, not a fresh one.
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "job finished") && !strings.Contains(line, "request_id=") {
			t.Errorf("job line lacks a request id: %s", line)
		}
	}
}

// TestRequestIDsUnique checks ids are unique per server, not per process.
func TestRequestIDsUnique(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
	if _, ok := seen["r000001"]; !ok {
		t.Errorf("expected server-scoped sequence starting at r000001, got %v", seen)
	}
}

// TestLoggingDisabledByDefault: a nil Config.Logger must not panic and
// must not write anywhere.
func TestLoggingDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, v := postMap(t, ts, `{"circuit": "mux"}`); v.State != JobDone {
		t.Fatalf("map failed: code %d, state %s", code, v.State)
	}
}

// TestUnsampledTraceparentSampledLocally: a request whose traceparent
// says "not sampled" is sampled locally like one with no header, so
// with TraceSample 1 it gets a fresh trace that GET /v1/traces/{id}
// serves.
func TestUnsampledTraceparentSampledLocally(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TraceSample: 1})
	unsampled := obs.NewTraceContext()
	unsampled.Sampled = false
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(`{"circuit": "mux"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, unsampled.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	v := checkEnvelope(t, raw)
	if v.TraceID == "" || v.TraceID == unsampled.TraceID {
		t.Fatalf("job trace id %q, want a fresh local trace (the caller's unsampled one is %s)",
			v.TraceID, unsampled.TraceID)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/" + v.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d, want 200", v.TraceID, resp.StatusCode)
	}
}
