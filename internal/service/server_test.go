package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soidomino/internal/mapper"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postMap(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	v := checkEnvelope(t, raw)
	return resp.StatusCode, v
}

// scrapeMetrics returns the server's /metrics page.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(b)
}

// TestMapCacheHit is the tentpole acceptance check: the same built-in
// circuit submitted twice completes the second time from the cache, and
// the counters show exactly one miss and one hit.
func TestMapCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	code, first := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || first.State != JobDone {
		t.Fatalf("first submit: code %d, state %s, error %q", code, first.State, first.Error)
	}
	if first.Cached {
		t.Fatal("first submission claims to be cached")
	}
	if first.Result == nil || first.Result.Stats.Gates == 0 {
		t.Fatal("first submission returned no result")
	}

	code, second := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || second.State != JobDone {
		t.Fatalf("second submit: code %d, state %s, error %q", code, second.State, second.Error)
	}
	if !second.Cached {
		t.Fatal("second identical submission missed the cache")
	}

	// The cached result must be byte-identical to the computed one.
	b1, err := EncodeJSON(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached result differs from computed result")
	}

	if hits := s.Counter("cache_hits"); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if misses := s.Counter("cache_misses"); misses != 1 {
		t.Errorf("cache_misses = %d, want 1", misses)
	}
	if done := s.Counter("jobs_done"); done != 2 {
		t.Errorf("jobs_done = %d, want 2", done)
	}
}

// TestCacheHitPublishedWhole polls each cache-hit job by id while it is
// being answered. A hit is visible in the job table before it is
// terminal, so everything a poller can read of it — cached included —
// must be written under the job's lock; under -race a write after
// registration is reported here.
func TestCacheHitPublishedWhole(t *testing.T) {
	const hits, pollers = 300, 4
	s, ts := newTestServer(t, Config{Workers: 1})
	if _, v := postMap(t, ts, `{"circuit": "mux"}`); v.State != JobDone {
		t.Fatalf("seed: state %s (%s)", v.State, v.Error)
	}
	h := s.Handler()
	var next atomic.Int64 // the id the next submission is numbered with
	next.Store(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/j%d", next.Load()), nil)
				h.ServeHTTP(httptest.NewRecorder(), r)
			}
		}()
	}
	for i := 0; i < hits; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(`{"circuit": "mux"}`)))
		var v JobView
		if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v.State != JobDone || !v.Cached {
			t.Fatalf("hit %d: state %s cached %t", i, v.State, v.Cached)
		}
		next.Add(1)
	}
	close(stop)
	wg.Wait()
	if n := s.Counter("cache_hits"); n != hits {
		t.Errorf("cache_hits = %d, want %d", n, hits)
	}
}

// TestDifferentOptionsMissCache pins the cache key: same circuit, other
// options — the k/W/H-sweep shape — must not share an entry.
func TestDifferentOptionsMissCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	postMap(t, ts, `{"circuit": "mux"}`)
	_, v := postMap(t, ts, `{"circuit": "mux", "options": {"clock_weight": 2}}`)
	if v.Cached {
		t.Fatal("different options hit the cache")
	}
	_, v = postMap(t, ts, `{"circuit": "mux", "algorithm": "domino"}`)
	if v.Cached {
		t.Fatal("different algorithm hit the cache")
	}
	if hits := s.Counter("cache_hits"); hits != 0 {
		t.Errorf("cache_hits = %d, want 0", hits)
	}
}

// TestExpiredDeadlineCancels is the second tentpole acceptance check: a
// job whose deadline has already passed must come back canceled via the
// DP's context checkpoints, not run to completion.
func TestExpiredDeadlineCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, v := postMap(t, ts, `{"circuit": "c880", "timeout_ms": -1}`)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if v.State != JobCanceled {
		t.Fatalf("state %s (error %q), want %s", v.State, v.Error, JobCanceled)
	}
	if v.Result != nil {
		t.Error("canceled job carries a result")
	}
	if !strings.Contains(v.Error, "context deadline exceeded") {
		t.Errorf("error %q does not name the deadline", v.Error)
	}
	// The cancellation error names the node the DP stopped at; node 0 of a
	// pre-expired deadline proves no DP work was done.
	if !strings.Contains(v.Error, "canceled at node 0") {
		t.Errorf("error %q does not show an immediate abort", v.Error)
	}
	if n := s.Counter("jobs_canceled"); n != 1 {
		t.Errorf("jobs_canceled = %d, want 1", n)
	}
	// A canceled run must not poison the cache.
	if _, v2 := postMap(t, ts, `{"circuit": "c880"}`); v2.Cached || v2.State != JobDone {
		t.Errorf("resubmit after cancel: cached=%v state=%s", v2.Cached, v2.State)
	}
}

// TestHugeTimeoutIsCapped: a timeout_ms too large for time.Duration is
// capped at MaxTimeout instead of wrapping to a negative timeout that
// would start the job already expired.
func TestHugeTimeoutIsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postMap(t, ts, `{"circuit": "mux", "timeout_ms": 9300000000000}`)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if v.State != JobDone {
		t.Fatalf("state %s (error %q), want %s", v.State, v.Error, JobDone)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postMap(t, ts, `{"circuit": "z4ml", "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: code %d", code)
	}
	if v.ID == "" {
		t.Fatal("async submit returned no job id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.State == JobDone {
			if jv.Result == nil {
				t.Fatal("done job has no result")
			}
			break
		}
		if jv.State == JobFailed || jv.State == JobCanceled {
			t.Fatalf("job %s: %s", jv.State, jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", jv.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInlineBenchSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	text := `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
g = AND(a, b)
f = OR(g, c)
`
	body, _ := json.Marshal(map[string]any{"bench": text})
	code, v := postMap(t, ts, string(body))
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("code %d, state %s, error %q", code, v.State, v.Error)
	}
	if v.Result.Source.Inputs != 3 || v.Result.Source.Outputs != 1 {
		t.Errorf("source %+v, want 3 inputs / 1 output", v.Result.Source)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"no source":      `{}`,
		"two sources":    `{"circuit": "mux", "bench": "INPUT(a)"}`,
		"unknown name":   `{"circuit": "nope"}`,
		"bad algorithm":  `{"circuit": "mux", "algorithm": "magic"}`,
		"bad objective":  `{"circuit": "mux", "options": {"objective": "power"}}`,
		"unknown field":  `{"circuit": "mux", "bogus": 1}`,
		"malformed json": `{"circuit": `,
	} {
		code, _ := postMap(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", resp.StatusCode)
	}
}

// TestOutOfRangeShapeRejected: a shape bound past mapper.MaxShape (or
// below 2) is refused with a 400 at submit — no job is registered or
// queued — and OptionsFromRequest itself reports it.
func TestOutOfRangeShapeRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, opts := range []string{
		fmt.Sprintf(`{"max_width": %d}`, mapper.MaxShape+1),
		`{"max_height": 1000000}`,
		`{"max_width": 1}`,
	} {
		code, v := postMap(t, ts, `{"circuit": "mux", "options": `+opts+`}`)
		if code != http.StatusBadRequest || !strings.Contains(v.Error, "MaxWidth/MaxHeight") {
			t.Errorf("%s: code %d error %q, want 400 naming MaxWidth/MaxHeight", opts, code, v.Error)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Errorf("%d jobs registered for rejected requests, want 0", jobs)
	}
	if _, err := OptionsFromRequest(&RequestOptions{MaxHeight: mapper.MaxShape + 1}); err == nil {
		t.Error("OptionsFromRequest accepted a height past MaxShape")
	}
	opt, err := OptionsFromRequest(&RequestOptions{MaxWidth: mapper.MaxShape, MaxHeight: mapper.MaxShape})
	if err != nil || opt.MaxWidth != mapper.MaxShape {
		t.Errorf("the cap itself must be accepted: %+v, %v", opt, err)
	}
}

// TestOversizedBodyRejected: a body past MaxBodyBytes gets a 413 JSON
// error, not a generic 400 or a connection reset.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	body, _ := json.Marshal(map[string]any{"blif": strings.Repeat("#pad\n", 200)})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413 (error %q)", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "256") {
		t.Errorf("error %q does not name the limit", e.Error)
	}
}

// TestOversizedNetworkRejected: a parseable source whose network exceeds
// MaxNetworkNodes is refused with 413 before it is queued.
func TestOversizedNetworkRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxNetworkNodes: 2})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(`{"circuit": "mux"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413 (error %q)", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "limit is 2") {
		t.Errorf("error %q does not name the node limit", e.Error)
	}
	if n := s.Counter("jobs_submitted"); n != 0 {
		t.Errorf("jobs_submitted = %d, want 0 (rejected before submission)", n)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		UptimeS int64  `json:"uptime_s"`
		Build   struct {
			Module    string `json:"module"`
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || v.Status != "ok" {
		t.Fatalf("healthz: code %d, status %q", resp.StatusCode, v.Status)
	}
	if v.Workers != 1 {
		t.Errorf("healthz workers = %d, want 1", v.Workers)
	}
	if v.UptimeS < 0 {
		t.Errorf("healthz uptime = %d, want >= 0", v.UptimeS)
	}
	if v.Build.GoVersion == "" {
		t.Errorf("healthz build info missing go_version: %+v", v.Build)
	}
}

func TestLatencyHistogramAppears(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postMap(t, ts, `{"circuit": "mux", "algorithm": "rs"}`)
	if text := scrapeMetrics(t, ts); !strings.Contains(text, "\nsoimapd_map_latency_ms_count{algorithm=\"rs\"} 1\n") {
		t.Errorf("/metrics has no rs latency histogram with count 1:\n%s", text)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v := postMap(t, ts, `{"circuit": "z4ml", "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The queued job must have been drained to completion, not dropped.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.State != JobDone {
		t.Errorf("job after shutdown: state %s, error %q", jv.State, jv.Error)
	}

	// New submissions are refused.
	code, _ = postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: code %d, want 503", code)
	}
}

func TestQueueFullRejects(t *testing.T) {
	// One worker, one queue slot. Block the worker so occupancy is
	// deterministic: job 1 runs (blocked), job 2 queues, job 3 overflows.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.mapFn = blockUntil(release, s.mapFn)
	defer close(release)

	submit := func(i int) int {
		// Distinct clock weights keep the submissions out of each other's
		// cache entries.
		code, _ := postMap(t, ts,
			fmt.Sprintf(`{"circuit": "mux", "async": true, "options": {"clock_weight": %d}}`, i))
		return code
	}
	if code := submit(1); code != http.StatusAccepted {
		t.Fatalf("job 1: code %d", code)
	}
	// Wait until the worker has taken job 1 off the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Counter("jobs_running") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	if code := submit(2); code != http.StatusAccepted {
		t.Fatalf("job 2: code %d", code)
	}
	// Overflow is overload, not shutdown: 429, not 503.
	if code := submit(3); code != http.StatusTooManyRequests {
		t.Fatalf("job 3: code %d, want 429", code)
	}
	if n := s.Counter("jobs_rejected"); n != 1 {
		t.Errorf("jobs_rejected = %d, want 1", n)
	}
	// The rejected job left nothing behind: no job-table entry, no id.
	s.mu.Lock()
	jobs, next := len(s.jobs), s.nextID
	s.mu.Unlock()
	if jobs != 2 || next != 2 {
		t.Errorf("after the 429: %d jobs registered, last id j%d; want 2 and j2", jobs, next)
	}
}

func TestSweepSharesCanonicalHash(t *testing.T) {
	// A W/H sweep over one circuit: every variant after the first two
	// submissions of each option set should hit.
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, w := range []int{4, 5} {
		body := fmt.Sprintf(`{"circuit": "cordic", "options": {"max_width": %d}}`, w)
		if _, v := postMap(t, ts, body); v.Cached {
			t.Fatalf("w=%d: first submission cached", w)
		}
		if _, v := postMap(t, ts, body); !v.Cached {
			t.Fatalf("w=%d: repeat submission missed", w)
		}
	}
}
