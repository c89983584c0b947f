package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/client"
	"soidomino/internal/faultpoint"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// newReplicaTS spins up a real soimapd instance for the router to front.
func newReplicaTS(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func newRouterTS(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Client.MaxAttempts == 0 {
		cfg.Client.MaxAttempts = 2
	}
	if cfg.Client.BaseDelay == 0 {
		cfg.Client.BaseDelay = time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // probing off unless the test wants it
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func postRouter(t *testing.T, ts *httptest.Server, body string) (int, service.JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, v
}

// TestRouterRoutesAndPolls drives the full path against real replicas:
// sync submissions finish, async submissions come back namespaced and
// poll to done through the router, and a malformed submission is
// rejected at the router without touching a replica.
func TestRouterRoutesAndPolls(t *testing.T) {
	_, tsA := newReplicaTS(t, service.Config{})
	_, tsB := newReplicaTS(t, service.Config{})
	rt, ts := newRouterTS(t, Config{Replicas: []string{tsA.URL, tsB.URL}})

	code, v := postRouter(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != service.JobDone {
		t.Fatalf("sync submit: code %d, state %s (%s)", code, v.State, v.Error)
	}
	if !strings.Contains(v.ID, ".") {
		t.Fatalf("job id %q not namespaced", v.ID)
	}

	code, v = postRouter(t, ts, `{"circuit": "z4ml", "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: code %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for v.State != service.JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("async job stuck in %s", v.State)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if v.Result == nil {
		t.Fatal("done job has no result")
	}

	// Unknown circuit: the routing key cannot be derived, so the router
	// answers 400 itself.
	code, _ = postRouter(t, ts, `{"circuit": "no-such-circuit"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown circuit through router: code %d, want 400", code)
	}
	if n := rt.counter("requests_bad"); n != 1 {
		t.Fatalf("requests_bad = %d, want 1", n)
	}

	for _, id := range []string{"zz", "9.j1", "7", ".", "0."} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("job id %q: code %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestAsyncCacheHitAccepted: an async submission answers 202 even when
// the replica's cache already holds the result — the state is done, but
// the status follows the request's async flag, both from the replica and
// relayed through the router.
func TestAsyncCacheHitAccepted(t *testing.T) {
	_, tsA := newReplicaTS(t, service.Config{})
	_, ts := newRouterTS(t, Config{Replicas: []string{tsA.URL}})

	if code, v := postRouter(t, tsA, `{"circuit": "mux"}`); code != http.StatusOK || v.State != service.JobDone {
		t.Fatalf("warm-up: code %d, state %s (%s)", code, v.State, v.Error)
	}
	for name, target := range map[string]*httptest.Server{"replica": tsA, "router": ts} {
		code, v := postRouter(t, target, `{"circuit": "mux", "async": true}`)
		if code != http.StatusAccepted || v.State != service.JobDone || !v.Cached {
			t.Errorf("%s: async cache hit = code %d, state %s, cached %t; want 202, done, cached",
				name, code, v.State, v.Cached)
		}
	}
}

// TestRouterConsistentRouting: one circuit, many sequential submissions
// — every one lands on the same replica (the ring is doing the routing,
// not round-robin), and the first reply is a miss while the rest are
// cache hits there.
func TestRouterConsistentRouting(t *testing.T) {
	_, tsA := newReplicaTS(t, service.Config{})
	_, tsB := newReplicaTS(t, service.Config{})
	rt, ts := newRouterTS(t, Config{
		Replicas:          []string{tsA.URL, tsB.URL},
		ReplicationFactor: 1,
	})

	var owner string
	for i := 0; i < 5; i++ {
		code, v := postRouter(t, ts, `{"circuit": "count"}`)
		if code != http.StatusOK || v.State != service.JobDone {
			t.Fatalf("submit %d: code %d state %s", i, code, v.State)
		}
		rep := strings.SplitN(v.ID, ".", 2)[0]
		if owner == "" {
			owner = rep
		} else if rep != owner {
			t.Fatalf("submission %d routed to replica %s, earlier ones to %s", i, rep, owner)
		}
		if wantCached := i > 0; v.Cached != wantCached {
			t.Fatalf("submission %d cached=%t, want %t", i, v.Cached, wantCached)
		}
	}
	rt.mu.Lock()
	routedTo := len(rt.routed)
	rt.mu.Unlock()
	if routedTo != 1 {
		t.Fatalf("submissions spread over %d replicas, want 1", routedTo)
	}
}

// TestRouterPropagatesRequestIdentity: a forwarded submission carries
// the caller's well-formed X-Request-ID and a traceparent under the
// caller's trace id to the replica, and the response echoes the request
// id and carries the trace id the replica set on its job view.
func TestRouterPropagatesRequestIdentity(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{}
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/map" {
			mu.Lock()
			seen["rid"] = r.Header.Get("X-Request-ID")
			seen["tp"] = r.Header.Get("traceparent")
			mu.Unlock()
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	defer stub.Close()
	_, ts := newRouterTS(t, Config{Replicas: []string{stub.URL}})

	tc := obs.NewTraceContext()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(`{"circuit": "mux"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "caller-42")
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-42" {
		t.Fatalf("response X-Request-ID %q, want the caller's id echoed", got)
	}
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.TraceID != tc.TraceID {
		t.Fatalf("job view trace id %q, want %q set by the replica and relayed", v.TraceID, tc.TraceID)
	}

	mu.Lock()
	defer mu.Unlock()
	if seen["rid"] != "caller-42" {
		t.Fatalf("replica saw X-Request-ID %q, want the caller's id forwarded", seen["rid"])
	}
	fwd, ok := obs.ParseTraceparent(seen["tp"])
	if !ok || !fwd.Sampled || fwd.TraceID != tc.TraceID {
		t.Fatalf("replica saw traceparent %q, want sampled under trace %s", seen["tp"], tc.TraceID)
	}
	if fwd.SpanID == tc.SpanID {
		t.Fatal("forwarded span id equals the caller's: the replica must nest under the router's span")
	}
}

// TestRouterFailover: the primary for the key is dead; the submission
// must land on the survivor, the dead replica must be passively marked
// unready, and the failover counters must move.
func TestRouterFailover(t *testing.T) {
	_, tsLive := newReplicaTS(t, service.Config{})
	const deadURL = "http://127.0.0.1:1" // closed port: every attempt is a transport error
	rt, ts := newRouterTS(t, Config{
		Replicas:          []string{deadURL, tsLive.URL},
		ReplicationFactor: 2,
	})

	// Pick a circuit whose ring primary is the dead replica, so the
	// submission must fail over. The ring holds the live replica's
	// random port, so which circuits hash to the dead primary varies
	// from run to run; over every registry circuit, the chance that
	// none does is about 2^-33.
	var pick string
	for _, c := range bench.Names() {
		key, err := service.RequestKey(context.Background(), &service.MapRequest{Circuit: c})
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.Prefer(key, 1)[0] == deadURL {
			pick = c
			break
		}
	}
	if pick == "" {
		t.Fatal("no registry circuit hashes to the dead primary")
	}

	for i := 0; i < 3; i++ {
		code, v := postRouter(t, ts, `{"circuit": "`+pick+`"}`)
		if code != http.StatusOK || v.State != service.JobDone {
			t.Fatalf("submit %d through failover: code %d state %s (%s)", i, code, v.State, v.Error)
		}
	}
	dead := rt.byURL[deadURL]
	if dead.ready.Load() {
		t.Fatal("dead replica still marked ready after transport failures")
	}
	if n := rt.counter("routed_failovers"); n < 1 {
		t.Fatalf("routed_failovers = %d, want >= 1", n)
	}
	if n := rt.counter("upstream_errors"); n < 1 {
		t.Fatalf("upstream_errors = %d, want >= 1", n)
	}
	// The router stays ready as long as one replica is.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with one live replica = %d, want 200", resp.StatusCode)
	}
}

// TestRouterNonRetryableSurfacesImmediately: a deterministic 4xx from a
// replica would fail identically everywhere; the router must pass it
// through instead of hammering the other replicas with it.
func TestRouterNonRetryableSurfacesImmediately(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":"node cap exceeded"}`)
	}))
	defer fake.Close()
	fake2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":"node cap exceeded"}`)
	}))
	defer fake2.Close()

	_, ts := newRouterTS(t, Config{
		Replicas:          []string{fake.URL, fake2.URL},
		ReplicationFactor: 2,
		Client:            client.Config{MaxAttempts: 1},
	})
	code, v := postRouter(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code %d (%+v), want the replica's 422 passed through", code, v)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d replica attempts for a non-retryable error, want 1", calls.Load())
	}
}

// TestRouterDuplicateReplicaURLs: a replica listed twice (a config typo)
// must still be routable — the ring holds two entries for one backend,
// and a submission is answered, not failed with a 5xx.
func TestRouterDuplicateReplicaURLs(t *testing.T) {
	_, rep := newReplicaTS(t, service.Config{})
	_, ts := newRouterTS(t, Config{Replicas: []string{rep.URL, rep.URL}})
	code, v := postRouter(t, ts, `{"circuit": "mux"}`)
	if code >= 500 || v.State != service.JobDone {
		t.Fatalf("code %d, state %s (error %q); want a done answer", code, v.State, v.Error)
	}
}

// TestRouterIdenticalSubmissionsRouteIndividually: the router has no
// coalescing layer of its own. N concurrent identical sync submissions
// each reach the one replica, whose in-flight table maps the key once:
// every caller gets its own job id and the same result bytes, and every
// answer is counted as routed and attributed to a cache tier.
func TestRouterIdenticalSubmissionsRouteIndividually(t *testing.T) {
	const n = 6
	_, rep := newReplicaTS(t, service.Config{Workers: 2})
	_, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}})

	codes := make([]int, n)
	views := make([]service.JobView, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(`{"circuit": "c880"}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			errs[i] = json.NewDecoder(resp.Body).Decode(&views[i])
		}(i)
	}
	wg.Wait()

	var want []byte
	ids := map[string]bool{}
	for i, v := range views {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK || v.State != service.JobDone || v.Result == nil {
			t.Fatalf("caller %d: code %d, state %s (%s)", i, codes[i], v.State, v.Error)
		}
		got, err := service.EncodeJSON(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("caller %d got different result bytes", i)
		}
		if ids[v.ID] {
			t.Fatalf("job id %s answered twice", v.ID)
		}
		ids[v.ID] = true
	}
	for _, family := range []string{"soirouter_routed_total", "soirouter_answer_tier_total"} {
		if got := metricSum(t, ts.URL, family); got != n {
			t.Errorf("%s sums to %v, want %d", family, got, n)
		}
	}
}

// TestRouterRejectsWhatReplicasReject: the router reads and decodes
// submissions as the replicas do (service.ReadRequest, then
// ParseRequest), so every body below gets the same status from the
// router as from soimapd itself, the status json.Decoder gave. A
// rejected body is never memoised: sent twice, it is decoded and
// rejected twice, and a valid body's memo entry does not answer its
// edited twin.
func TestRouterRejectsWhatReplicasReject(t *testing.T) {
	const limit = 512
	_, rep := newReplicaTS(t, service.Config{MaxBodyBytes: limit})
	rt, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}, MaxBodyBytes: limit})
	const valid = `{"circuit": "mux"}`
	// A two-input AND as a JSON string's contents.
	const tinyBLIF = `.model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n`
	accepted := map[string]bool{}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"circuit": "mux", "optoins": {"pareto": true}}`, http.StatusBadRequest},
		{"unknown field again", `{"circuit": "mux", "optoins": {"pareto": true}}`, http.StatusBadRequest},
		{"oversized body", `{"blif": "` + strings.Repeat("x", 2*limit) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing bytes within the limit", valid + ` {"circuit": "z4ml"}`, http.StatusBadRequest},
		{"trailing white space", valid + " \n\t", http.StatusOK},
		{"trailing bytes past the limit", valid + strings.Repeat(" x", limit), http.StatusRequestEntityTooLarge},
		{"malformed and past the limit", `{"circuit": "mux"]` + strings.Repeat(" ", 2*limit), http.StatusRequestEntityTooLarge},
		{"valid", valid, http.StatusOK},
		{"one-byte syntax twin", `{"circuit": "mux"]`, http.StatusBadRequest},
		{"one-byte unknown circuit twin", `{"circuit": "mut"}`, http.StatusBadRequest},
		{"negative tuple budget", `{"circuit": "mux", "options": {"pareto": true, "tuple_budget": -1}}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		// Decoder edge cases, each at encoding/json's status.
		{"deprecated options.workers", `{"circuit": "mux", "options": {"workers": 4}}`, http.StatusOK},
		{"unknown field in options", `{"circuit": "mux", "options": {"pareto": true, "workerz": 4}}`, http.StatusBadRequest},
		{"upper-case BLIF key", `{"BLIF": "` + tinyBLIF + `"}`, http.StatusOK},
		{"capitalised Circuit key", `{"Circuit": "mux"}`, http.StatusOK},
		{"duplicate key, the last known", `{"circuit": "mut", "circuit": "mux"}`, http.StatusOK},
		{"duplicate key, the last unknown", `{"circuit": "mux", "circuit": "mut"}`, http.StatusBadRequest},
		{"fractional timeout", `{"circuit": "mux", "timeout_ms": 1.5}`, http.StatusBadRequest},
		{"exponent timeout", `{"circuit": "mux", "timeout_ms": 1e3}`, http.StatusBadRequest},
		{"invalid UTF-8 in blif", `{"blif": "# ` + "\xff\xfe" + `\n` + tinyBLIF + `"}`, http.StatusOK},
		{"lone surrogate in blif", `{"blif": "# \ud800\n` + tinyBLIF + `"}`, http.StatusOK},
		{"top-level null", `null`, http.StatusBadRequest},
		{"leading white space", " \n\t" + valid, http.StatusOK},
	} {
		if tc.want == http.StatusOK {
			accepted[tc.body] = true
		}
		for _, target := range []struct{ name, url string }{{"soimapd", rep.URL}, {"router", ts.URL}} {
			resp, err := http.Post(target.url+"/v1/map", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s via %s: status %d, want %d", tc.name, target.name, resp.StatusCode, tc.want)
			}
		}
	}
	if hits := metricSum(t, ts.URL, "soirouter_key_memo_hits_total"); hits != 0 {
		t.Errorf("soirouter_key_memo_hits_total = %v, want 0", hits)
	}
	// Only the accepted bodies were memoised.
	if n := rt.memo.Len(); n != len(accepted) {
		t.Errorf("memo holds %d entries, want %d", n, len(accepted))
	}
}

// metricSum sums every sample of one metric family in a /metrics scrape.
func metricSum(t *testing.T, baseURL, family string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestRouterProbeDrain: when a replica starts draining (readyz 503), the
// prober takes it out of rotation and new work lands on its peer; when
// it recovers, it returns to rotation.
func TestRouterProbeDrain(t *testing.T) {
	svcA, tsA := newReplicaTS(t, service.Config{})
	_, tsB := newReplicaTS(t, service.Config{})
	rt, _ := newRouterTS(t, Config{
		Replicas:      []string{tsA.URL, tsB.URL},
		ProbeInterval: 10 * time.Millisecond,
	})

	waitReady := func(url string, want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		rep := rt.byURL[url]
		for rep.ready.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never became ready=%t", url, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitReady(tsA.URL, true)
	svcA.BeginDrain()
	waitReady(tsA.URL, false)
	if rt.readyCount() < 1 {
		t.Fatal("draining one replica must not unready the cluster")
	}
}

// TestRouterRelaysReplicaBytes: whatever the replica answers — a miss, a
// hit, an async 202, a coalesced ride, a canceled job, a poll — the
// router answers the replica's own bytes and status, the job id
// namespaced and nothing else changed.
func TestRouterRelaysReplicaBytes(t *testing.T) {
	// One fault registry for both replicas: whichever owns the async
	// leader below holds it at its queue pop.
	faults := faultpoint.New(1)
	_, tsA := newReplicaTS(t, service.Config{Faults: faults})
	_, tsB := newReplicaTS(t, service.Config{Faults: faults})
	rt, ts := newRouterTS(t, Config{Replicas: []string{tsA.URL, tsB.URL}})

	do := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	// relayed checks a router answer against the owning replica's own
	// rendering of the (terminal, so stable) job.
	relayed := func(name string, body []byte) service.JobView {
		t.Helper()
		var v service.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, body)
		}
		idx, id, _ := strings.Cut(v.ID, ".")
		n, err := strconv.Atoi(idx)
		if err != nil || n >= len(rt.replicas) {
			t.Fatalf("%s: job id %q names no replica", name, v.ID)
		}
		code, own := do(http.MethodGet, rt.replicas[n].url+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("%s: replica poll %d", name, code)
		}
		want := bytes.Replace(own, []byte(`"id": "`+id+`"`), []byte(`"id": "`+v.ID+`"`), 1)
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: router answered\n%s\nthe replica wrote\n%s", name, body, own)
		}
		return v
	}
	post := func(name, body string, wantCode int) service.JobView {
		t.Helper()
		code, b := do(http.MethodPost, ts.URL+"/v1/map", body)
		if code != wantCode {
			t.Fatalf("%s: status %d, want %d\n%s", name, code, wantCode, b)
		}
		return relayed(name, b)
	}

	if v := post("miss", `{"circuit": "mux"}`, http.StatusOK); v.Cached || v.State != service.JobDone {
		t.Fatalf("miss: state %s cached %t", v.State, v.Cached)
	}
	if v := post("hit", `{"circuit": "mux"}`, http.StatusOK); !v.Cached {
		t.Fatal("hit: not cached")
	}
	if v := post("async hit", `{"circuit": "mux", "async": true}`, http.StatusAccepted); !v.Cached {
		t.Fatal("async hit: not cached")
	}
	if v := post("canceled", `{"circuit": "z4ml", "timeout_ms": -1}`, http.StatusOK); v.State != service.JobCanceled || v.Error == "" {
		t.Fatalf("canceled: state %s error %q", v.State, v.Error)
	}

	// An async leader then an identical sync submission: the second rides
	// the first on the owning replica. The leader's worker sleeps at its
	// queue pop, so the leader stays in the in-flight table until its
	// twin has followed it.
	faults.Arm(service.PointQueuePop, faultpoint.Fault{Kind: faultpoint.Latency, Prob: 1, Times: 1, Latency: time.Second})
	const body = `{"circuit": "c880"`
	code, b := do(http.MethodPost, ts.URL+"/v1/map", body+`, "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async leader: status %d\n%s", code, b)
	}
	var leader service.JobView
	if err := json.Unmarshal(b, &leader); err != nil {
		t.Fatal(err)
	}
	if !post("coalesced", body+`}`, http.StatusOK).Coalesced {
		t.Fatal("the sync twin did not coalesce onto its async leader")
	}
	// The leader, polled through the router: the twin answered with its
	// outcome, so it is done.
	code, b = do(http.MethodGet, ts.URL+"/v1/jobs/"+leader.ID, "")
	if code != http.StatusOK {
		t.Fatalf("poll: status %d\n%s", code, b)
	}
	if v := relayed("poll", b); v.State != service.JobDone {
		t.Fatalf("poll: leader state %s", v.State)
	}
}

// TestRouterStrashOffMismatchCounted: a per-request strash_off
// submission sent twice through the router maps once and answers the
// second time from cache, both answers byte-equal to a direct replica's
// strash-off mapping. The router keys it as the replica does, so
// key_mismatches stays 0. The case keeps the name it had when a router
// could force strash_off: the request the router forwards carries
// strash_off and the replica runs strash by default.
func TestRouterStrashOffMismatchCounted(t *testing.T) {
	t.Run("strash-off router, strash-on replica", func(t *testing.T) {
		const body = `{"circuit": "mux", "options": {"strash_off": true}}`
		_, ref := newReplicaTS(t, service.Config{})
		_, want := postRouter(t, ref, body)
		if want.State != service.JobDone {
			t.Fatalf("reference: state %s (%s)", want.State, want.Error)
		}
		wantBytes, err := service.EncodeJSON(want.Result)
		if err != nil {
			t.Fatal(err)
		}
		svc, rep := newReplicaTS(t, service.Config{})
		_, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}})
		for i, wantCached := range []bool{false, true} {
			code, v := postRouter(t, ts, body)
			if code != http.StatusOK || v.State != service.JobDone || v.Cached != wantCached {
				t.Fatalf("submission %d: code %d state %s cached %t", i, code, v.State, v.Cached)
			}
			if v.Result.Strash != nil {
				t.Errorf("submission %d: strash ran despite options.strash_off", i)
			}
			got, err := service.EncodeJSON(v.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("submission %d: result differs from a direct strash-off mapping", i)
			}
		}
		if n := svc.Counter("key_mismatches"); n != 0 {
			t.Errorf("key_mismatches = %d, want 0", n)
		}
	})
}

// TestRouterCanonicalOptionsShareKey: two submissions that differ only
// in option fields the algorithm does not read share one routing and
// cache key: the second, sent through the router, is served from the
// cache with the first one's bytes, options echo included, and the
// replica counts no key mismatch.
func TestRouterCanonicalOptionsShareKey(t *testing.T) {
	for _, c := range []struct{ name, plain, unread string }{
		{"domino pareto",
			`{"circuit": "c880", "algorithm": "domino"}`,
			`{"circuit": "c880", "algorithm": "domino", "options": {"pareto": true, "tuple_budget": 5}}`},
		{"soi budget without pareto",
			`{"circuit": "c880"}`,
			`{"circuit": "c880", "options": {"tuple_budget": 5}}`},
		{"soi clock weight under depth",
			`{"circuit": "c880", "options": {"objective": "depth"}}`,
			`{"circuit": "c880", "options": {"objective": "depth", "clock_weight": 3}}`},
		{"domino depth weight",
			`{"circuit": "c880", "algorithm": "domino", "options": {"objective": "depth", "depth_weight": 1}}`,
			`{"circuit": "c880", "algorithm": "domino", "options": {"objective": "depth", "depth_weight": 13}}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var keys []string
			for _, body := range []string{c.plain, c.unread} {
				var req service.MapRequest
				if err := json.Unmarshal([]byte(body), &req); err != nil {
					t.Fatal(err)
				}
				key, err := service.RequestKey(context.Background(), &req)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			if keys[0] != keys[1] {
				t.Fatalf("keys differ:\n  %s\n  %s", keys[0], keys[1])
			}
			svc, rep := newReplicaTS(t, service.Config{})
			_, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}})
			var results [][]byte
			for i, body := range []string{c.plain, c.unread} {
				code, v := postRouter(t, ts, body)
				if code != http.StatusOK || v.State != service.JobDone || v.Cached != (i == 1) {
					t.Fatalf("submission %d: code %d state %s cached %t", i, code, v.State, v.Cached)
				}
				b, err := service.EncodeJSON(v.Result)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, b)
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Error("the cached answer differs from the first mapping")
			}
			if n := svc.Counter("key_mismatches"); n != 0 {
				t.Errorf("key_mismatches = %d, want 0", n)
			}
		})
	}
}

// TestRouterForwardsCallerBytes: the router reads a submission once and
// forwards the caller's body byte for byte — its spacing, key order and
// escapes intact — on every failover attempt.
func TestRouterForwardsCallerBytes(t *testing.T) {
	t.Run("verbatim", func(t *testing.T) {
		svc := service.New(service.Config{Workers: 1})
		t.Cleanup(func() { svc.Shutdown(context.Background()) })
		// Both replicas record what they receive; the first attempt of each
		// submission is refused with a 503, so the router fails over.
		var mu sync.Mutex
		var got [][]byte
		capture := func() *httptest.Server {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/map" {
					b, err := io.ReadAll(r.Body)
					if err != nil {
						t.Error(err)
					}
					mu.Lock()
					got = append(got, b)
					first := len(got) == 1
					mu.Unlock()
					if first {
						http.Error(w, `{"error": "overloaded"}`, http.StatusServiceUnavailable)
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(b))
				}
				svc.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			return ts
		}
		a, b := capture(), capture()

		const body = "{ \"options\":{\"max_width\": 3},\n  \"circuit\" : \"m\\u0075x\" }"
		_, ts := newRouterTS(t, Config{Replicas: []string{a.URL, b.URL},
			Client: client.Config{MaxAttempts: 1}})
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 2 {
			t.Fatalf("replicas received %d attempts, want 2 (one failover)", len(got))
		}
		for i, b := range got {
			if string(b) != body {
				t.Errorf("attempt %d forwarded\n  %q\nwant\n  %q", i, b, body)
			}
		}
	})
}
