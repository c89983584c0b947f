package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"soidomino/internal/faultpoint"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// postMapResp is postMap returning the raw response so tests can inspect
// headers (Retry-After).
func postMapResp(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobView) {
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
	return resp, v
}

// TestWorkerPanicIsolation is the acceptance check for panic isolation: a
// fault-injected panic deep inside a worker's mapping pipeline fails that
// one job — with a redacted stack — and the daemon keeps serving.
func TestWorkerPanicIsolation(t *testing.T) {
	reg := faultpoint.New(1)
	reg.Arm(mapper.PointCombine, faultpoint.Fault{Kind: faultpoint.Panic, Prob: 1, Times: 1})
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg})

	code, v := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobFailed {
		t.Fatalf("panicked job: code %d, state %s (error %q)", code, v.State, v.Error)
	}
	if !strings.Contains(v.Error, "internal panic") || !strings.Contains(v.Error, mapper.PointCombine) {
		t.Errorf("error %q does not describe the injected panic", v.Error)
	}
	// Redaction: no addresses, no file:line — those stay in the server log.
	if strings.Contains(v.Error, "0x") || strings.Contains(v.Error, ".go:") {
		t.Errorf("client-visible error leaks stack internals: %q", v.Error)
	}

	// The daemon survived: the same request now succeeds on the same
	// (sole) worker, and /healthz answers.
	code, v = postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("post-panic job: code %d, state %s (error %q)", code, v.State, v.Error)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v / %v", resp, err)
	}

	if n := s.Counter("jobs_panicked"); n != 1 {
		t.Errorf("jobs_panicked = %d, want 1", n)
	}
	if n := s.Counter("jobs_failed"); n != 1 {
		t.Errorf("jobs_failed = %d, want 1", n)
	}
	// The retry was sent after the client saw the failure, so it must not
	// have followed the failed leader (singleflight rule, see runJob).
	if n := s.Counter("jobs_coalesced"); n != 0 {
		t.Errorf("jobs_coalesced = %d, want 0", n)
	}
}

// TestHTTPPanicRecovery: a panic inside the HTTP handler itself (here the
// decode fault point) is answered with a 500, counted, and does not kill
// the server.
func TestHTTPPanicRecovery(t *testing.T) {
	reg := faultpoint.New(1)
	reg.Arm(PointDecode, faultpoint.Fault{Kind: faultpoint.Panic, Prob: 1, Times: 1})
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg})

	resp, _ := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(`{"circuit":"mux"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: code %d, want 500", resp.StatusCode)
	}
	if code, v := postMap(t, ts, `{"circuit": "mux"}`); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("post-panic request: code %d, state %s", code, v.State)
	}
	if n := s.Counter("http_panics"); n != 1 {
		t.Errorf("http_panics = %d, want 1", n)
	}
}

// TestLoadSheddingRejectsDoomedJobs: when the estimated queue wait
// already exceeds a submission's deadline, the server sheds it with 429 +
// Retry-After instead of letting it rot in the queue.
func TestLoadSheddingRejectsDoomedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	s.mapFn = blockUntil(release, s.mapFn)
	defer close(release)
	// Seed the service-time estimate as if jobs took 10s each.
	s.metrics.avgJobNanos.Store(int64(10 * time.Second))

	// Job 1 occupies the worker; job 2 waits in the queue. Both have the
	// default 30s deadline, which the estimated wait does not exceed.
	if code, _ := postMap(t, ts, `{"circuit": "mux", "async": true, "options": {"clock_weight": 1}}`); code != http.StatusAccepted {
		t.Fatalf("job 1 not accepted: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Counter("jobs_running") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := postMap(t, ts, `{"circuit": "mux", "async": true, "options": {"clock_weight": 2}}`); code != http.StatusAccepted {
		t.Fatalf("job 2 not accepted: %d", code)
	}

	// Job 3 has a 50ms deadline against a ~10s estimated wait: doomed.
	resp, _ := postMapResp(t, ts, `{"circuit": "mux", "async": true, "timeout_ms": 50, "options": {"clock_weight": 3}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed job: code %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if n := s.Counter("jobs_shed"); n != 1 {
		t.Errorf("jobs_shed = %d, want 1", n)
	}
}

// TestQueueFullSetsRetryAfter: the 429 on queue overflow carries a
// Retry-After hint.
func TestQueueFullSetsRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.mapFn = blockUntil(release, s.mapFn)
	defer close(release)

	submit := func(i int) *http.Response {
		resp, _ := postMapResp(t, ts,
			fmt.Sprintf(`{"circuit": "mux", "async": true, "options": {"clock_weight": %d}}`, i))
		return resp
	}
	submit(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.Counter("jobs_running") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	submit(2)
	resp := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
}

// TestShutdownSetsRetryAfter: submissions during shutdown get 503 (not
// the overload 429) with a Retry-After.
func TestShutdownSetsRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := postMapResp(t, ts, `{"circuit": "mux"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shutdown submit: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
}

// TestJobEviction: terminal jobs disappear from GET /v1/jobs/{id} after
// JobRetention and the eviction is counted.
func TestJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobRetention: 20 * time.Millisecond})
	code, v := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("submit: code %d, state %s", code, v.State)
	}
	get := func() int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("fresh job: GET = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for get() != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatal("job was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.Counter("jobs_evicted"); n < 1 {
		t.Errorf("jobs_evicted = %d, want >= 1", n)
	}
}

// TestCacheKeyOptionsEncoding guards the cache key's options encoding
// against mapper.Options: equal options collide, and every field
// declares in readBy which algorithms read it, and under which options
// if not under all. On each of a few base option sets, mutating a field
// must change the key of an algorithm's canonical options (ResolveSpec's)
// exactly when that algorithm reads it there. A field missing from
// readBy, or of a kind the mutator does not know, fails the test until
// both learn about it.
func TestCacheKeyOptionsEncoding(t *testing.T) {
	all := []report.Algorithm{report.Domino, report.RS, report.SOI, report.RSDeep}
	type reader struct {
		algos []report.Algorithm
		when  func(mapper.Options) bool // nil: under every option set
	}
	readBy := map[string]reader{
		"MaxWidth":           {all, nil},
		"MaxHeight":          {all, nil},
		"Objective":          {all, nil},
		"ClockWeight":        {all, func(o mapper.Options) bool { return o.Objective == mapper.Area }},
		"DepthWeight":        {[]report.Algorithm{report.SOI}, func(o mapper.Options) bool { return o.Objective == mapper.Depth }},
		"AlwaysFooted":       {all, nil},
		"BaselineStackOrder": {[]report.Algorithm{report.Domino, report.RS, report.RSDeep}, nil},
		"Pareto":             {[]report.Algorithm{report.SOI}, nil},
		"TupleBudget":        {[]report.Algorithm{report.SOI}, func(o mapper.Options) bool { return o.Pareto }},
		"Workers":            {nil, nil},
		"StrashOff":          {all, nil}, // by the pipeline's front end
		"SequenceAware":      {all, nil},
	}
	base := mapper.DefaultOptions()
	if encodeOptions(base) != encodeOptions(base) {
		t.Fatal("equal Options encode differently")
	}
	var bases []mapper.Options
	for _, obj := range []mapper.Objective{mapper.Area, mapper.Depth} {
		for _, pareto := range []bool{false, true} {
			b := base
			b.Objective, b.Pareto = obj, pareto
			bases = append(bases, b)
		}
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		r, ok := readBy[name]
		if !ok {
			t.Errorf("mapper.Options.%s does not declare which algorithms read it: add it to readBy", name)
			continue
		}
		for _, b := range bases {
			mut := b
			f := reflect.ValueOf(&mut).Elem().Field(i)
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint8: // Objective, StackOrder: two values each
				f.SetUint(f.Uint() ^ 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("mapper.Options.%s has unhandled kind %s: teach encodeOptions and this test about it",
					name, f.Kind())
			}
			for _, a := range all {
				changed := encodeOptions(a.Canonical(mut)) != encodeOptions(a.Canonical(b))
				want := slices.Contains(r.algos, a) && (r.when == nil || r.when(b))
				if changed != want {
					t.Errorf("Options.%s under %s, objective %s, pareto %t: key changes %t, want %t",
						name, a.Key(), b.Objective, b.Pareto, changed, want)
				}
			}
		}
	}
}

// TestWorkersShareCacheEntry: two submissions differing only in the
// deprecated options.workers are both accepted, resolve to the same
// cache key — the second is a cache hit — and return byte-identical
// results.
func TestWorkersShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	code1, v1 := postMap(t, ts, `{"circuit": "mux", "options": {"workers": 1}}`)
	if code1 != http.StatusOK {
		t.Fatalf("workers=1: code %d", code1)
	}
	code2, v2 := postMap(t, ts, `{"circuit": "mux", "options": {"workers": 4}}`)
	if code2 != http.StatusOK {
		t.Fatalf("workers=4: code %d", code2)
	}
	if !v2.Cached {
		t.Error("workers=4 resubmission missed the cache; Workers leaked into the cache key")
	}
	b1, err := EncodeJSON(v1.Result)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(v2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("results differ across worker counts")
	}
}

// TestShutdownDrainsAndStopsGoroutines: shutdown leaves every accepted
// job in a terminal state and stops all server goroutines (workers and
// janitor) — a plain-test goroutine-leak check over the final stacks.
func TestShutdownDrainsAndStopsGoroutines(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	release := make(chan struct{})
	s.mapFn = blockUntil(release, s.mapFn)

	var ids []string
	for i := 1; i <= 6; i++ {
		code, v := postMap(t, ts,
			fmt.Sprintf(`{"circuit": "mux", "async": true, "options": {"clock_weight": %d}}`, i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	ts.Close()

	// Shut down while the workers are still blocked: the expiring context
	// cancels them, queued jobs drain as canceled.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)
	close(release)

	s.mu.Lock()
	for _, id := range ids {
		j := s.jobs[id]
		if j == nil {
			s.mu.Unlock()
			t.Fatalf("job %s vanished before retention", id)
		}
		v, _ := j.view()
		if v.State != JobDone && v.State != JobCanceled && v.State != JobFailed {
			s.mu.Unlock()
			t.Fatalf("job %s left in non-terminal state %s", id, v.State)
		}
	}
	s.mu.Unlock()

	// No worker or janitor goroutine may survive Shutdown.
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := strings.Contains(stacks, "(*Server).worker") ||
			strings.Contains(stacks, "(*Server).janitor")
		if !leaked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server goroutines survived Shutdown:\n%s", stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDegradedResponse is the acceptance check for graceful degradation
// end to end: a Pareto job with a tiny tuple budget completes (the audit
// inside the pipeline passed) and the response carries degraded: true.
func TestDegradedResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := postMap(t, ts, `{"circuit": "cordic", "options": {"pareto": true, "tuple_budget": 4}}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("degraded job: code %d, state %s (error %q)", code, v.State, v.Error)
	}
	if v.Result == nil || !v.Result.Degraded {
		t.Fatal("tuple_budget=4 Pareto run did not flag degraded")
	}
	if v.Result.Options.TupleBudget != 4 {
		t.Errorf("response echoes tuple_budget %d, want 4", v.Result.Options.TupleBudget)
	}
	// Same budget, ample headroom ⇒ not degraded, and the two budgets
	// must occupy distinct cache entries (the key encodes the budget).
	code, v = postMap(t, ts, `{"circuit": "cordic", "options": {"pareto": true, "tuple_budget": 1000000}}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("roomy job: code %d, state %s", code, v.State)
	}
	if v.Cached {
		t.Fatal("different tuple_budget hit the same cache entry")
	}
	if v.Result.Degraded {
		t.Error("roomy budget flagged degraded")
	}
}
