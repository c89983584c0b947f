package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadyzDrain pins the drain contract: /readyz answers 200 until
// BeginDrain, 503 after — while /healthz stays 200 and the job API keeps
// accepting work throughout the grace window.
func TestReadyzDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	if !s.BeginDrain() {
		t.Fatal("BeginDrain did not flip the state")
	}
	if s.BeginDrain() {
		t.Fatal("second BeginDrain claims to have flipped the state again")
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (drain is not death)", code)
	}
	// The grace window: a draining server still accepts and runs jobs.
	if code, v := postMap(t, ts, `{"circuit": "mux"}`); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("submission during drain: code %d, state %s (%s)", code, v.State, v.Error)
	}
}

// TestCoalescingSingleDPRun is the singleflight acceptance check: N
// concurrent identical submissions execute exactly one mapping run; the
// rest attach to the in-flight leader and return byte-identical results,
// counted by jobs_coalesced.
func TestCoalescingSingleDPRun(t *testing.T) {
	const followers = 6
	s, ts := newTestServer(t, Config{Workers: 2})

	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	inner := s.mapFn
	s.mapFn = func(ctx context.Context, j *job) (*MapResult, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return inner(ctx, j)
	}

	// The leader goes in async and blocks inside mapFn, guaranteeing the
	// followers all arrive while it is in flight.
	code, leader := postMap(t, ts, `{"circuit": "mux", "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("leader submit: code %d", code)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached mapFn")
	}

	var wg sync.WaitGroup
	results := make([]JobView, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = postMap(t, ts, `{"circuit": "mux"}`)
		}(i)
	}
	// Let the follower handlers reach the singleflight check, then
	// release the leader. Waiting on jobs_coalesced (not sleeping) keeps
	// the test deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.counter("jobs_coalesced") < followers {
		if time.Now().After(deadline) {
			t.Fatalf("jobs_coalesced = %d after 5s, want %d",
				s.metrics.counter("jobs_coalesced"), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("mapFn ran %d times for %d identical submissions, want 1", n, followers+1)
	}
	var leaderBytes []byte
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + leader.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		decodeBody(t, resp, &v)
		if v.State == JobDone {
			leaderBytes = mustEncode(t, v.Result)
			break
		}
		if v.State == JobFailed || v.State == JobCanceled {
			t.Fatalf("leader job %s: %s", v.State, v.Error)
		}
		time.Sleep(time.Millisecond)
	}
	for i, v := range results {
		if v.State != JobDone {
			t.Fatalf("follower %d: state %s (%s)", i, v.State, v.Error)
		}
		if !v.Coalesced {
			t.Errorf("follower %d not marked coalesced", i)
		}
		if !bytes.Equal(mustEncode(t, v.Result), leaderBytes) {
			t.Errorf("follower %d result differs from the leader's bytes", i)
		}
	}
	if n := s.metrics.counter("jobs_coalesced"); n != followers {
		t.Errorf("jobs_coalesced = %d, want %d", n, followers)
	}
	if done := s.metrics.counter("jobs_done"); done != followers+1 {
		t.Errorf("jobs_done = %d, want %d", done, followers+1)
	}
}

// TestPeerCacheTier exercises the shared result-cache tier end to end:
// replica B, cold, answers a submission from replica A's cache — without
// a mapping run — and the bytes agree.
func TestPeerCacheTier(t *testing.T) {
	_, tsA := newTestServer(t, Config{Workers: 1})
	code, va := postMap(t, tsA, `{"circuit": "z4ml"}`)
	if code != http.StatusOK || va.State != JobDone {
		t.Fatalf("seed replica A: code %d, state %s (%s)", code, va.State, va.Error)
	}

	// The peer lookup endpoint itself: the exact key hits, others miss.
	key, err := RequestKey(context.Background(), &MapRequest{Circuit: "z4ml"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tsA.URL + "/v1/cache?key=" + url.QueryEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer lookup of a cached key = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(tsA.URL + "/v1/cache?key=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer lookup of an unknown key = %d, want 404", resp.StatusCode)
	}

	// Replica B misses locally, consults A, and never maps. A dead peer
	// ahead of A in the list must degrade to a miss, not an error.
	sb, tsB := newTestServer(t, Config{
		Workers:     1,
		Peers:       []string{"http://127.0.0.1:1", tsA.URL},
		PeerTimeout: 100 * time.Millisecond,
	})
	var mapped atomic.Int64
	inner := sb.mapFn
	sb.mapFn = func(ctx context.Context, j *job) (*MapResult, error) {
		mapped.Add(1)
		return inner(ctx, j)
	}
	code, vb := postMap(t, tsB, `{"circuit": "z4ml"}`)
	if code != http.StatusOK || vb.State != JobDone {
		t.Fatalf("replica B: code %d, state %s (%s)", code, vb.State, vb.Error)
	}
	if mapped.Load() != 0 {
		t.Fatalf("replica B ran %d mapping(s) despite the peer hit", mapped.Load())
	}
	if !vb.Cached {
		t.Error("peer-cache answer not marked cached")
	}
	if !bytes.Equal(mustEncode(t, vb.Result), mustEncode(t, va.Result)) {
		t.Error("peer-fetched result differs from the origin replica's bytes")
	}
	if n := sb.metrics.counter("cluster_cache_peer_hits"); n != 1 {
		t.Errorf("replica B cluster_cache_peer_hits = %d, want 1", n)
	}
	if n := sb.metrics.counter("cluster_cache_peer_errors"); n != 1 {
		t.Errorf("replica B cluster_cache_peer_errors = %d, want 1 (the dead peer)", n)
	}
	// B now holds the entry locally: a resubmission is a plain cache hit.
	if _, v := postMap(t, tsB, `{"circuit": "z4ml"}`); !v.Cached || v.State != JobDone {
		t.Errorf("resubmission to B: cached=%t state=%s, want a local hit", v.Cached, v.State)
	}
}

// TestPeerCacheResponseCapped pins the peer-fetch response limit: a
// peer replying with more than PeerMaxBodyBytes is a counted error and
// a cache miss (the job maps locally), never an unbounded read.
func TestPeerCacheResponseCapped(t *testing.T) {
	// A "sick peer" that answers every cache lookup with a huge body.
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte("x"), 64<<10))
	}))
	defer sick.Close()

	s, ts := newTestServer(t, Config{
		Workers:          1,
		Peers:            []string{sick.URL},
		PeerTimeout:      2 * time.Second,
		PeerMaxBodyBytes: 1 << 10,
	})
	code, v := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("submit with sick peer: code %d, state %s (%s)", code, v.State, v.Error)
	}
	if v.Cached {
		t.Error("oversized peer reply was treated as a cache hit")
	}
	if n := s.metrics.counter("cluster_cache_peer_errors"); n != 1 {
		t.Errorf("cluster_cache_peer_errors = %d, want 1", n)
	}
	if n := s.metrics.counter("cluster_cache_peer_hits"); n != 0 {
		t.Errorf("cluster_cache_peer_hits = %d, want 0", n)
	}
}

// TestPeerCacheServesDiskTier: the /v1/cache endpoint answers from the
// durable store when the LRU misses, so a freshly-restarted replica
// still contributes its persistent cache to the cluster's shared tier.
func TestPeerCacheServesDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, StateDir: dir, JournalFsync: "always"})
	ts1 := httptest.NewServer(s1.Handler())
	if code, v := postMapURL(t, ts1.URL, `{"circuit": "z4ml"}`); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("seed: code %d, state %s", code, v.State)
	}
	key, err := RequestKey(context.Background(), &MapRequest{Circuit: "z4ml"})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	shutdownNow(t, s1)
	os.Remove(filepath.Join(dir, "journal.soij")) // cold job table, warm disk

	s2 := New(Config{Workers: 1, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/v1/cache?key=" + url.QueryEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk-tier peer lookup = %d, want 200", resp.StatusCode)
	}
	var res MapResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode disk-served cache entry: %v", err)
	}
	if res.Circuit != "z4ml" {
		t.Fatalf("disk-served entry circuit = %q, want z4ml", res.Circuit)
	}
	if n := s2.metrics.counter("cluster_cache_served"); n != 1 {
		t.Errorf("cluster_cache_served = %d, want 1", n)
	}
	if n := s2.metrics.counter("store_hits"); n != 1 {
		t.Errorf("store_hits = %d, want 1", n)
	}
}

func decodeBody(t *testing.T, resp *http.Response, v *JobView) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func mustEncode(t *testing.T, r *MapResult) []byte {
	t.Helper()
	if r == nil {
		t.Fatal("nil MapResult")
	}
	b, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
