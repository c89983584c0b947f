package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soidomino/internal/service"
)

// fakeJob answers every successful request with a fixed done job.
func fakeJob(w http.ResponseWriter) {
	json.NewEncoder(w).Encode(service.JobView{ID: "j1", State: service.JobDone})
}

// newClient builds a Client against url with deterministic jitter (always
// the full ceiling) and a sleep recorder instead of real sleeping.
func newClient(url string, slept *[]time.Duration, cfg Config) *Client {
	cfg.BaseURL = url
	cfg.Rand = func() float64 { return 0.999999 }
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return New(cfg)
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		fakeJob(w)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second})
	v, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.JobDone {
		t.Fatalf("state %s", v.State)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	// Full jitter with rand≈1: delays approach 100ms then 200ms.
	if len(slept) != 2 || slept[0] > 100*time.Millisecond || slept[1] > 200*time.Millisecond ||
		slept[1] <= slept[0] {
		t.Fatalf("backoff schedule %v not exponential under the ceiling", slept)
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		fakeJob(w)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{BaseDelay: time.Millisecond})
	if _, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"}); err != nil {
		t.Fatal(err)
	}
	// The jittered delay (≤1ms) must have been raised to the server's 2s.
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want the server's 2s Retry-After", slept)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown benchmark"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{})
	_, err := c.Map(context.Background(), &service.MapRequest{Circuit: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d: client retried a 400", calls.Load())
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v on a non-retryable error", slept)
	}
}

func TestBudgetCapsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{
		MaxAttempts: 10, BaseDelay: 300 * time.Millisecond, Budget: 500 * time.Millisecond,
	})
	_, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err == nil {
		t.Fatal("expected an error")
	}
	// Delay ceilings: ~300ms, ~600ms, ... The first fits the 500ms
	// budget, the second would blow it, so exactly one sleep happened.
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one backoff before the budget ran out", slept)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("budget error %v does not wrap the last server error", err)
	}
}

// TestRetryAfterFloorExceedingBudgetFailsFast pins the interaction of the
// Retry-After floor with the sleep budget: when the server demands a wait
// the budget cannot cover, the client must not sleep at all — it fails
// immediately, and the error still unwraps to the server's APIError.
func TestRetryAfterFloorExceedingBudgetFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "10")
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{
		MaxAttempts: 10, BaseDelay: time.Millisecond, Budget: 500 * time.Millisecond,
	})
	start := time.Now()
	_, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err == nil {
		t.Fatal("expected the budget to kill the call")
	}
	// The 10s floor exceeds the 500ms budget, so the one legal outcome is
	// zero sleeps: the floor is checked against the budget before sleeping.
	if len(slept) != 0 {
		t.Fatalf("slept %v, want none (floor 10s > budget 500ms must fail fast)", slept)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a wrapped 429 APIError", err)
	}
	if apiErr.RetryAfter != 10*time.Second {
		t.Fatalf("RetryAfter = %s, want 10s", apiErr.RetryAfter)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast path took %s", elapsed)
	}
}

// TestCancellationDuringBackoffReturnsPromptly uses the real default
// Sleep: canceling the context mid-backoff must wake the client at once
// with an error that unwraps to context.Canceled.
func TestCancellationDuringBackoffReturnsPromptly(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	// Rand≈1 pins the first backoff at ~2s; Sleep is left nil so the
	// production path (timer vs ctx.Done) is what gets exercised.
	c := New(Config{
		BaseURL:   ts.URL,
		BaseDelay: 2 * time.Second,
		Rand:      func() float64 { return 0.999999 },
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Map(ctx, &service.MapRequest{Circuit: "mux"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to be unwrappable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %s to surface; backoff slept through it", elapsed)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{MaxAttempts: 3, BaseDelay: time.Millisecond})
	_, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestMapWaitPollsToTerminal(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: "j7", State: service.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/j7", func(w http.ResponseWriter, r *http.Request) {
		state := service.JobRunning
		if polls.Add(1) >= 3 {
			state = service.JobDone
		}
		json.NewEncoder(w).Encode(service.JobView{ID: "j7", State: state})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{})
	v, err := c.MapWait(context.Background(), &service.MapRequest{Circuit: "mux"}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.JobDone || polls.Load() != 3 {
		t.Fatalf("state %s after %d polls", v.State, polls.Load())
	}
}

// restartWindowHandler simulates a replica restart as the client sees
// it: first dropped connections (the process is gone), then 503s with a
// Retry-After hint (the replacement is booting or draining), then a
// recovered terminal job re-served from the journal.
func restartWindowHandler(calls *atomic.Int64, view service.JobView) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch n := calls.Add(1); {
		case n <= 2:
			// Crash window: kill the connection without a response.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case n <= 4:
			// Boot window: up but not ready, with a retry hint.
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			json.NewEncoder(w).Encode(view)
		}
	}
}

// TestRetriesAcrossRestartWindow walks one Map call through a full
// replica restart: connection drops, then 503 drain responses whose
// Retry-After floor must override the computed backoff, then success.
func TestRetriesAcrossRestartWindow(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(restartWindowHandler(&calls,
		service.JobView{ID: "j1", State: service.JobDone, Cached: true, Recovered: true}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Budget:      10 * time.Second,
	})
	v, err := c.Map(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.JobDone || !v.Recovered {
		t.Fatalf("got %s (recovered=%v), want a recovered done job", v.State, v.Recovered)
	}
	if calls.Load() != 5 {
		t.Fatalf("calls = %d, want 5 (2 drops, 2 drains, 1 success)", calls.Load())
	}
	if len(slept) != 4 {
		t.Fatalf("slept %d times, want 4", len(slept))
	}
	// The two sleeps after the 503s must honor the 1s Retry-After floor;
	// the transport-error sleeps stay under the plain backoff ceiling.
	if slept[0] > 10*time.Millisecond || slept[1] > 20*time.Millisecond {
		t.Errorf("crash-window backoffs %v exceed the exponential ceiling", slept[:2])
	}
	if slept[2] < time.Second || slept[3] < time.Second {
		t.Errorf("drain-window backoffs %v ignore the 1s Retry-After floor", slept[2:])
	}
}

// TestPollerConvergesOnReservedJob drives the Job poller through the
// same restart window: the job id survives the restart (the journal
// re-created it), so polling the original id must converge on the
// re-served terminal job instead of 404ing.
func TestPollerConvergesOnReservedJob(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(restartWindowHandler(&calls,
		service.JobView{ID: "j7", State: service.JobDone, Cached: true, Recovered: true}))
	defer ts.Close()

	var slept []time.Duration
	c := newClient(ts.URL, &slept, Config{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Budget:      10 * time.Second,
	})
	v, err := c.Job(context.Background(), "j7")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j7" || v.State != service.JobDone || !v.Recovered {
		t.Fatalf("poll converged on %s/%s (recovered=%v), want done j7 re-served from the journal",
			v.ID, v.State, v.Recovered)
	}
}

// TestRestartBackoffHonorsCancellation cancels the caller's context
// while the client is waiting out a restart window: the retry loop must
// return the context error promptly instead of burning the remaining
// attempts against a dead replica.
func TestRestartBackoffHonorsCancellation(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var slept []time.Duration
	cfg := Config{
		BaseURL:     ts.URL,
		MaxAttempts: 8,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Budget:      10 * time.Second,
	}
	cfg.Rand = func() float64 { return 0.999999 }
	// The caller gives up mid-wait: the cancellation lands while the
	// retry loop is inside its first backoff sleep.
	cfg.Sleep = func(c context.Context, d time.Duration) error {
		slept = append(slept, d)
		cancel()
		return c.Err()
	}
	c := New(cfg)
	_, err := c.Map(ctx, &service.MapRequest{Circuit: "mux"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the backoff wait", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1: cancellation must stop the retry loop at the first backoff", calls.Load())
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want exactly the interrupted backoff", len(slept))
	}
}

// TestViewReadWhole: a job view is read whole and decoded as
// json.Unmarshal decodes it, so white space may follow the view but
// anything else fails the call, which is not retried: the same bytes
// would come back. An error answer's message is read from its body.
func TestViewReadWhole(t *testing.T) {
	for _, tc := range []struct {
		body   string
		chunk  bool // no Content-Length: the body is sent chunked
		wantOK bool
	}{
		{"{\"id\": \"j1\", \"state\": \"done\"}\n\r\t ", false, true},
		{"{\"id\": \"j1\", \"state\": \"done\"}\n", true, true},
		{`{"id": "j1", "state": "done"} x`, false, false},
		{`{"id": "j1", "state": "done"}{}`, true, false},
		{`{"id": "j1", "state": "done"`, false, false},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if !tc.chunk {
				w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)))
			}
			io.WriteString(w, tc.body)
		}))
		var slept []time.Duration
		v, err := newClient(ts.URL, &slept, Config{}).Map(context.Background(), &service.MapRequest{Circuit: "mux"})
		ts.Close()
		if tc.wantOK {
			if err != nil || v.ID != "j1" || v.State != service.JobDone {
				t.Errorf("%q: view %+v, err %v", tc.body, v, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "decode response") || calls.Load() != 1 {
			t.Errorf("%q: err %v after %d calls, want one decode error", tc.body, err, calls.Load())
		}
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error": "no such circuit"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	var slept []time.Duration
	_, err := newClient(ts.URL, &slept, Config{}).Map(context.Background(), &service.MapRequest{Circuit: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != "no such circuit" {
		t.Errorf("error answer: %v", err)
	}
}
