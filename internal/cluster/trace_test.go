package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// TestTraceSmokeStitchesClusterTrace is the trace-smoke gate (`make
// trace-smoke`): one traced request through an in-process router and a
// two-replica fleet must produce ONE stitched Perfetto trace containing
// the router's spans, the serving replica's queue/job/phase spans, and
// the peer-cache lookup the sibling replica observed — every process
// keyed under the trace id the client minted — plus an explain record
// whose per-phase times nest inside the job's run wall.
func TestTraceSmokeStitchesClusterTrace(t *testing.T) {
	// Bind both replica listeners first so each service can be created
	// knowing its sibling's URL: the peer-cache tier is what pulls the
	// second replica into the trace even though only one maps the job.
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	replicaName := func(i int) string { return fmt.Sprintf("replica-%d", i) }
	for i := range lns {
		svc := service.New(service.Config{
			Workers:     1,
			ReplicaName: replicaName(i),
			Peers:       []string{urls[1-i]},
			PeerTimeout: 500 * time.Millisecond,
		})
		hs := &http.Server{Handler: svc.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		})
	}
	_, ts := newRouterTS(t, Config{Replicas: urls})

	tc := obs.NewTraceContext()
	ctx := obs.WithTraceContext(context.Background(), tc)
	cli := client.New(client.Config{BaseURL: ts.URL})
	v, err := cli.Map(ctx, &service.MapRequest{Circuit: "c880"})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.JobDone {
		t.Fatalf("state %s (%s)", v.State, v.Error)
	}
	if v.TraceID != tc.TraceID {
		t.Fatalf("job view trace id %q, want the minted %q", v.TraceID, tc.TraceID)
	}

	// Attribution through the router's explain proxy: a fresh circuit is
	// a miss, so per-phase times must be present and nest inside the run
	// wall (separate clock reads, so allow jitter headroom).
	ev, err := cli.Explain(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	a := ev.Attribution
	if a == nil {
		t.Fatal("explain returned no attribution")
	}
	if a.CacheTier != service.TierMiss {
		t.Fatalf("cache tier %q, want %q", a.CacheTier, service.TierMiss)
	}
	if a.Replica == "" {
		t.Fatal("attribution names no replica")
	}
	var phaseSum float64
	for _, phaseMS := range a.PhasesMS {
		phaseSum += phaseMS
	}
	if len(a.PhasesMS) == 0 || phaseSum <= 0 {
		t.Fatalf("no phase times in attribution %+v", a)
	}
	if phaseSum > a.WallMS*1.1+1 {
		t.Fatalf("phase times sum to %.3fms, exceeding run wall %.3fms", phaseSum, a.WallMS)
	}

	// The stitched trace assembles asynchronously: the serving replica
	// exports the job's spans as its worker unwinds and the router's
	// root span ends after the response is written, so poll until every
	// expected span has landed (or the deadline reports what's missing).
	var missing []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		byProc, err := fetchStitched(ctx, cli, tc.TraceID)
		if err == nil {
			missing = missingSpans(byProc, replicaName(0), replicaName(1))
			if len(missing) == 0 {
				return
			}
		} else {
			missing = []string{"trace fetch: " + err.Error()}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched trace incomplete: %s", strings.Join(missing, "; "))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchStitched pulls the router's stitched Perfetto rendering of one
// trace and indexes its complete-span names by process name.
func fetchStitched(ctx context.Context, cli *client.Client, traceID string) (map[string][]string, error) {
	raw, err := cli.Trace(ctx, traceID)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decode stitched trace: %w", err)
	}
	procName := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			if n, ok := e.Args["name"].(string); ok {
				procName[e.Pid] = n
			}
		}
	}
	byProc := map[string][]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			byProc[procName[e.Pid]] = append(byProc[procName[e.Pid]], e.Name)
		}
	}
	return byProc, nil
}

// missingSpans lists what the stitched trace still lacks: the router's
// routing spans, one replica's queue/job/phase/peer-cache spans, and the
// sibling's peer-cache-serving span. The job lands on whichever replica
// the ring picks, so replica expectations accept either identity.
func missingSpans(byProc map[string][]string, replicas ...string) []string {
	hasSpan := func(proc, prefix string) bool {
		for _, n := range byProc[proc] {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	anyReplica := func(prefix string) bool {
		for _, r := range replicas {
			if hasSpan(r, prefix) {
				return true
			}
		}
		return false
	}
	var missing []string
	for _, prefix := range []string{"route POST /v1/map", "attempt "} {
		if !hasSpan("soirouter", prefix) {
			missing = append(missing, "router span "+prefix)
		}
	}
	// "strash <net>" is the pipeline phase span; "<algorithm> dp" covers
	// the mapper-engine phase spans exported from the run's tracer;
	// "encode <net>" is the replica's one encoding of the mapped result.
	for _, prefix := range []string{"POST /v1/map", "queue wait", "job ", "peer cache ", "strash ", "encode "} {
		if !anyReplica(prefix) {
			missing = append(missing, "replica span "+prefix)
		}
	}
	dpSeen := false
	for _, r := range replicas {
		for _, n := range byProc[r] {
			if strings.HasSuffix(n, " dp") {
				dpSeen = true
			}
		}
	}
	if !dpSeen {
		missing = append(missing, "replica mapper dp phase span")
	}
	// The peer-cache lookup must appear on the sibling's side too: its
	// /v1/cache handler joins the propagated trace.
	if !anyReplica("GET /v1/cache") {
		missing = append(missing, "peer replica span GET /v1/cache")
	}
	return missing
}

// TestRouterSamplesUnsampledTraceparent: the router treats an unsampled
// traceparent like none, so with TraceSample 1 the request gets a fresh
// trace that the router's GET /v1/traces/{id} serves.
func TestRouterSamplesUnsampledTraceparent(t *testing.T) {
	_, replica := newReplicaTS(t, service.Config{})
	_, ts := newRouterTS(t, Config{Replicas: []string{replica.URL}, TraceSample: 1})
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
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID == "" || v.TraceID == unsampled.TraceID {
		t.Fatalf("job trace id %q, want a fresh router trace (the caller's unsampled one is %s)",
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
