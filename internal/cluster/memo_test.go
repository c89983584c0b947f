package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// blifBody is a submission of a registry circuit as inline BLIF, the
// way the fleet benchmark and `soimap -server -blif` send it.
func blifBody(t testing.TB, circuit, extra string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := blif.Write(&b, builtin.MustBuild(circuit)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&service.MapRequest{BLIF: b.String()})
	if err != nil {
		t.Fatal(err)
	}
	if extra != "" {
		body = append(append(body[:len(body)-1], ","...), extra+"}"...)
	}
	return body
}

// countKeys wraps the router's decode-and-key step with a call counter.
func countKeys(rt *Router) *atomic.Int64 {
	var n atomic.Int64
	inner := rt.bodyKey
	rt.bodyKey = func(ctx context.Context, body []byte) (string, error) {
		n.Add(1)
		return inner(ctx, body)
	}
	return &n
}

// submit posts one body, with a trace context when tc is valid, and
// returns the status, the answer's job id and its raw result bytes.
func submit(url string, body []byte, tc obs.TraceContext) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	var v struct {
		ID     string          `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, "", nil, fmt.Errorf("%s: %w", raw, err)
	}
	return resp.StatusCode, v.ID, v.Result, nil
}

// submitOK submits a body to the router and to a reference replica and
// requires a 200 with byte-equal results; it returns the router's job id.
func submitOK(t *testing.T, router, ref string, body []byte, tc obs.TraceContext) string {
	t.Helper()
	code, id, got, err := submit(router, body, tc)
	if err != nil {
		t.Fatal(err)
	}
	_, _, want, err := submit(ref, body, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("status %d, result differs from a direct replica's", code)
	}
	return id
}

// memoSpan returns the memo attribute of the router's "request key"
// span in one trace.
func memoSpan(t *testing.T, rt *Router, traceID string) int64 {
	t.Helper()
	for _, s := range rt.hub.Spans(traceID) {
		if s.Name != "request key" {
			continue
		}
		for _, kv := range s.Args {
			if kv.Key == "memo" {
				return kv.Val
			}
		}
	}
	t.Fatalf("trace %s has no request key span with a memo attribute", traceID)
	return -1
}

// TestRouterKeyMemo: a byte-identical resubmission routes under the
// memoised key, neither decoded nor keyed again, and is answered exactly
// as a replica answers it directly.
func TestRouterKeyMemo(t *testing.T) {
	t.Run("resubmission", func(t *testing.T) {
		_, ref := newReplicaTS(t, service.Config{})
		_, repA := newReplicaTS(t, service.Config{})
		_, repB := newReplicaTS(t, service.Config{})
		rt, ts := newRouterTS(t, Config{Replicas: []string{repA.URL, repB.URL}})
		keys := countKeys(rt)

		body := blifBody(t, "c499", "")
		const n = 4
		var replica string
		for i := range n {
			tc := obs.NewTraceContext()
			id := submitOK(t, ts.URL, ref.URL, body, tc)
			if memo := memoSpan(t, rt, tc.TraceID); memo != int64(min(i, 1)) {
				t.Errorf("submission %d: request key span memo=%d", i, memo)
			}
			if hits := metricSum(t, ts.URL, "soirouter_key_memo_hits_total"); hits != float64(i) {
				t.Errorf("after %d identical submissions soirouter_key_memo_hits_total = %v, want %d", i+1, hits, i)
			}
			if i == 0 {
				replica, _, _ = strings.Cut(id, ".")
			}
		}
		if k := keys.Load(); k != 1 {
			t.Errorf("%d identical submissions keyed %d times, want 1", n, k)
		}

		// A twin that differs only in timeout_ms is a body of its own: a
		// second memo entry, but the same key, so the same replica.
		twin := blifBody(t, "c499", `"timeout_ms": 60000`)
		id := submitOK(t, ts.URL, ref.URL, twin, obs.TraceContext{})
		if prefix, _, _ := strings.Cut(id, "."); prefix != replica {
			t.Errorf("timeout twin routed to replica %s, the original to %s", prefix, replica)
		}
		if k, entries := keys.Load(), rt.memo.Len(); k != 2 || entries != 2 {
			t.Errorf("after the twin: %d key derivations and %d memo entries, want 2 and 2", k, entries)
		}
		k1, _, _ := rt.keyFor(context.Background(), body)
		k2, _, _ := rt.keyFor(context.Background(), twin)
		if k1 != k2 {
			t.Errorf("timeout twin keyed %q, original %q", k2, k1)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		rt, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		keys := countKeys(rt)
		ctx := context.Background()
		body := func(i int) []byte {
			return []byte(`{"circuit": "mux", "timeout_ms": ` + strconv.Itoa(i) + `}`)
		}
		for i := range memoEntries + 1 {
			if _, hit, err := rt.keyFor(ctx, body(i)); hit || err != nil {
				t.Fatalf("body %d: hit %t, err %v", i, hit, err)
			}
		}
		if got := rt.memo.Len(); got != memoEntries {
			t.Fatalf("after %d distinct bodies the memo holds %d entries, want %d", memoEntries+1, got, memoEntries)
		}
		// The least recently used entry made room for the newest.
		if _, hit, _ := rt.keyFor(ctx, body(memoEntries)); !hit {
			t.Error("the newest body missed")
		}
		if _, hit, _ := rt.keyFor(ctx, body(0)); hit {
			t.Error("the least recently used body still hit after eviction")
		}
		if k := keys.Load(); k != memoEntries+2 {
			t.Errorf("%d key derivations, want %d", k, memoEntries+2)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		_, rep := newReplicaTS(t, service.Config{Workers: 2})
		rt, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}})
		keys := countKeys(rt)
		bodies := [][]byte{
			[]byte(`{"circuit": "mux"}`),
			[]byte(`{"circuit": "z4ml"}`),
			blifBody(t, "c880", ""),
		}
		const workers, rounds = 6, 4
		results := make([][][]byte, len(bodies))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds {
					i := (w + r) % len(bodies)
					code, _, res, err := submit(ts.URL, bodies[i], obs.TraceContext{})
					if err != nil || code != http.StatusOK {
						t.Errorf("status %d, %v", code, err)
						return
					}
					mu.Lock()
					results[i] = append(results[i], res)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for i, rs := range results {
			for _, r := range rs[1:] {
				if !bytes.Equal(r, rs[0]) {
					t.Errorf("body %d answered with differing results", i)
				}
			}
		}
		hits := rt.Counter("key_memo_hits")
		if total := keys.Load() + hits; total != workers*rounds {
			t.Errorf("%d key derivations + %d memo hits, want %d submissions", keys.Load(), hits, workers*rounds)
		}
		if got := rt.memo.Len(); got != len(bodies) {
			t.Errorf("memo holds %d entries, want %d", got, len(bodies))
		}
	})
}

// memoHitAllocsCeiling pins what a memo hit allocates: nothing. A hit
// hashes the body and reads the memo; lowering the text, as a miss does,
// costs about a hundred allocations however large the BLIF.
const memoHitAllocsCeiling = 0

// TestRouterMemoHitAllocs is the `make dp-allocs` guard on the router's
// memo hit. The ceiling is the same for a 0.2 KB registry request and
// for c499's 47 KB BLIF, so a hit never lowers the text. Env-gated like
// TestKeyAllocs so plain `go test ./...` skips it.
func TestRouterMemoHitAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	rt, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"mux registry", []byte(`{"circuit": "mux"}`)},
		{"c499 BLIF", blifBody(t, "c499", "")},
	} {
		if _, _, err := rt.keyFor(ctx, tc.body); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, hit, _ := rt.keyFor(ctx, tc.body); !hit {
				t.Fatal("memo miss after priming")
			}
		})
		t.Logf("%s (%d bytes): %.0f allocs per memo hit (ceiling %d)", tc.name, len(tc.body), allocs, memoHitAllocsCeiling)
		if allocs > memoHitAllocsCeiling {
			t.Errorf("%s: a memo hit allocates %.0f times, ceiling %d", tc.name, allocs, memoHitAllocsCeiling)
		}
	}
}
