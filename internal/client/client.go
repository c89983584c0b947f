// Package client is the resilient HTTP client of the mapping service:
// it submits MapRequests to a soimapd instance and retries transient
// failures — transport errors, 429 overload, 5xx — with capped
// exponential backoff and full jitter, honoring the server's Retry-After
// hints, under a total back-off time budget.
//
// Retrying POST /v1/map is safe: mapping is deterministic and the server
// caches by the network's structural digest + options, so a duplicate
// submission is a cache hit, not duplicated work.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// Config shapes a Client. The zero value of any field selects the
// documented default.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// MaxAttempts bounds tries per call (first try included; default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms): the delay
	// before attempt n is uniform in [0, min(MaxDelay, BaseDelay·2ⁿ)] —
	// "full jitter", which spreads synchronized retry storms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff delay (default 5s).
	MaxDelay time.Duration
	// Budget caps the total time spent sleeping between retries across
	// one call (default 30s). When the next delay would exceed what is
	// left, the call gives up and returns the last error.
	Budget time.Duration
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Rand supplies jitter in [0,1); nil uses math/rand. Tests inject a
	// deterministic source.
	Rand func() float64
	// Sleep overrides the inter-retry wait; nil sleeps honoring ctx.
	// Tests inject a recorder to assert the backoff schedule.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Second
	}
	if c.Budget <= 0 {
		c.Budget = 30 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// Client talks to one soimapd instance. Create with New; safe for
// concurrent use.
type Client struct {
	cfg Config
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults()}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// retryable reports whether an attempt outcome is worth retrying:
// transport errors, overload (429) and server-side failures (5xx).
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusTooManyRequests || apiErr.Status >= 500
	}
	// Anything else reaching the retry loop is a transport error.
	return true
}

// Map submits a mapping request and returns the resulting job view (the
// finished job for synchronous submissions, the queued one for async).
func (c *Client) Map(ctx context.Context, req *service.MapRequest) (*service.JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.doJSON(ctx, http.MethodPost, "/v1/map", body)
}

// Job fetches one job's current view.
func (c *Client) Job(ctx context.Context, id string) (*service.JobView, error) {
	return c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Raw is a 2xx answer kept as the server wrote it: its status and body
// bytes, undecoded.
type Raw struct {
	Status int
	Body   []byte
}

// MapRaw submits an encoded mapping request as is, forwarding key — the
// submission's cache key, as service.RequestKey derived it — in the
// service.KeyHeader header, and returns the answer undecoded. soirouter
// routes with it, forwarding the bytes its caller sent.
func (c *Client) MapRaw(ctx context.Context, body []byte, key string) (*Raw, error) {
	return c.do(ctx, http.MethodPost, "/v1/map", key, body)
}

// JobRaw fetches one job's current view undecoded.
func (c *Client) JobRaw(ctx context.Context, id string) (*Raw, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil)
}

// MapWait submits asynchronously and polls until the job reaches a
// terminal state (see Wait).
func (c *Client) MapWait(ctx context.Context, req *service.MapRequest, poll time.Duration) (*service.JobView, error) {
	async := *req
	async.Async = true
	v, err := c.Map(ctx, &async)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, v, poll)
}

// Wait polls the job v views until it reaches a terminal state, honoring
// ctx, and returns that view; a terminal v is returned as is. poll <= 0
// selects 50ms.
func (c *Client) Wait(ctx context.Context, v *service.JobView, poll time.Duration) (*service.JobView, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for !terminal(v.State) {
		if err := c.cfg.Sleep(ctx, poll); err != nil {
			return nil, fmt.Errorf("polling job %s interrupted: %w", v.ID, err)
		}
		var err error
		if v, err = c.Job(ctx, v.ID); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func terminal(s service.JobState) bool {
	return s == service.JobDone || s == service.JobFailed || s == service.JobCanceled
}

// Explain fetches one job's per-request cost attribution
// (GET /v1/jobs/{id}/explain).
func (c *Client) Explain(ctx context.Context, id string) (*service.ExplainView, error) {
	var ev service.ExplainView
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"/explain", &ev); err != nil {
		return nil, err
	}
	return &ev, nil
}

// TraceSpans fetches one distributed trace's raw spans as recorded by
// the server's own trace hub (GET /v1/traces/{id}?raw=1). soirouter uses
// it to stitch a fleet-wide trace from every replica's spans.
func (c *Client) TraceSpans(ctx context.Context, traceID string) ([]obs.Span, error) {
	var spans []obs.Span
	if err := c.getJSON(ctx, "/v1/traces/"+traceID+"?raw=1", &spans); err != nil {
		return nil, err
	}
	return spans, nil
}

// Trace fetches one stitched trace rendered as Perfetto-loadable Chrome
// trace-event JSON (GET /v1/traces/{id}).
func (c *Client) Trace(ctx context.Context, traceID string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.getJSON(ctx, "/v1/traces/"+traceID, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// doJSON runs one job-view call through the retry loop and decodes the
// view with service.ParseJobView.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte) (*service.JobView, error) {
	raw, err := c.do(ctx, method, path, "", body)
	if err != nil {
		return nil, err
	}
	v, err := service.ParseJobView(raw.Body)
	if err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return v, nil
}

// getJSON runs one GET through the retry loop and decodes the answer
// into out with json.Unmarshal.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	raw, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// do runs one logical call through the retry loop and returns its 2xx
// answer undecoded. A non-empty key is sent in service.KeyHeader.
func (c *Client) do(ctx context.Context, method, path, key string, body []byte) (*Raw, error) {
	var lastErr error
	var slept time.Duration
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt-1, lastErr)
			// The budget check runs before the sleep: a Retry-After floor
			// that no longer fits the remaining budget fails fast with the
			// last server error instead of sleeping into a lost cause.
			if slept+d > c.cfg.Budget {
				return nil, fmt.Errorf("retry budget %s exhausted after %d attempts: %w",
					c.cfg.Budget, attempt, lastErr)
			}
			if err := c.cfg.Sleep(ctx, d); err != nil {
				// Keep the context error unwrappable (errors.Is) while
				// recording what the retry loop was waiting out.
				return nil, fmt.Errorf("backoff before attempt %d interrupted (last error: %v): %w",
					attempt+1, lastErr, err)
			}
			slept += d
		}
		raw, err := c.once(ctx, method, path, key, body)
		if err == nil {
			return raw, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// backoff computes the wait before the next try: full jitter over the
// exponential cap, but never earlier than the server's Retry-After.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	ceil := c.cfg.MaxDelay
	if shifted := c.cfg.BaseDelay << attempt; shifted < ceil && shifted > 0 {
		ceil = shifted
	}
	d := time.Duration(c.cfg.Rand() * float64(ceil))
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// maxPresize caps the buffer a read allocates up front from the
// answer's declared Content-Length; a longer body still reads whole.
const maxPresize = 64 << 20

// maxErrorBody caps how much of a non-2xx answer is read for its
// message.
const maxErrorBody = 1 << 16

// once performs a single HTTP attempt and returns a 2xx answer's status
// and body, read whole into one buffer. The context's request id and
// trace context propagate as X-Request-ID and traceparent headers, so
// the server joins the caller's trace and log story (identifiers only —
// they never influence the request body, and therefore never the cache
// or routing key).
func (c *Client) once(ctx context.Context, method, path, key string, body []byte) (*Raw, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set(service.KeyHeader, key)
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if tc := obs.TraceContextFrom(ctx); tc.Sampled && tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		apiErr := &APIError{Status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		b, err := readBody(io.LimitReader(resp.Body, maxErrorBody), min(resp.ContentLength, maxErrorBody))
		if err == nil && json.Unmarshal(b, &e) == nil {
			apiErr.Message = e.Error
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, apiErr
	}
	b, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	return &Raw{Status: resp.StatusCode, Body: b}, nil
}

// readBody reads r whole into one buffer, presized from size, the
// answer's declared Content-Length (-1 if unknown).
func readBody(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 && size <= maxPresize {
		buf.Grow(int(size) + bytes.MinRead) // room for the read that sees EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
