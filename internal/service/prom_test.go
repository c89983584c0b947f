package service

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"soidomino/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureMetrics builds a metrics set with fully deterministic contents.
func fixtureMetrics() *metrics {
	m := newMetrics()
	m.add("jobs_submitted", 5)
	m.add("jobs_done", 3)
	m.add("jobs_failed", 1)
	m.add("cache_hits", 2)
	m.add("cache_misses", 3)
	m.jobsQueued.Store(1)
	m.jobsRunning.Store(2)
	m.observe("soi", 3*time.Millisecond)
	m.observe("soi", 40*time.Millisecond)
	m.observe("soi", 20*time.Second) // overflow bucket
	m.observe("domino", 7*time.Millisecond)
	m.recordEngine("soi", &obs.Stats{
		Nodes: 245, TuplesGenerated: 684, TuplesPruned: 193, TuplesKept: 491,
		CombineOr: 553, CombineAndOrdered: 131, CombineAndReordered: 0,
		FrontierHighWater: 7, DPDischargeCharges: 4, CancelChecks: 316,
		StrashMerged: 12, StrashFolded: 3, StrashDead: 7,
		Phases: obs.PhaseTimes{
			Strash:    41 * time.Microsecond,
			Decompose: 179 * time.Microsecond, Unate: 261 * time.Microsecond,
			DP: 911 * time.Microsecond, Traceback: 429 * time.Microsecond,
		},
	})
	m.recordEngine("soi", &obs.Stats{Nodes: 5, TuplesGenerated: 8, TuplesKept: 8,
		CombineOr: 4, CombineAndOrdered: 2, CombineAndReordered: 2, FrontierHighWater: 3,
		CancelChecks: 10})
	m.recordEngine("domino", &obs.Stats{Nodes: 3, TuplesGenerated: 6, TuplesPruned: 2,
		TuplesKept: 4, CombineOr: 4, CombineAndOrdered: 2, FrontierHighWater: 2,
		DPDischargeCharges: 2, CancelChecks: 7})
	return m
}

// TestPromExpositionGolden pins the full /metrics rendering byte-for-byte:
// the exposition format is an external contract (Prometheus scrapers parse
// it), so any drift must be a conscious choice.
func TestPromExpositionGolden(t *testing.T) {
	build := obs.BuildInfo{
		Module: "soidomino", Version: "(devel)",
		GoVersion: "go1.99", Revision: "deadbeefcafe",
	}
	var buf bytes.Buffer
	if err := writePromText(&buf, fixtureMetrics(), 90*time.Second, build); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden (run with -update if intended):\n%s", buf.String())
	}
}

// TestMetricsEndpoint exercises the live handler: content type, and that
// a mapped job's engine stats show up in the scrape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	if code, v := postMap(t, ts, `{"circuit": "mux", "algorithm": "soi"}`); v.State != JobDone {
		t.Fatalf("map failed: code %d, state %s (%s)", code, v.State, v.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		"# TYPE soimapd_jobs_done_total counter",
		"soimapd_jobs_done_total 1",
		`soimapd_dp_nodes_total{algorithm="soi"}`,
		`soimapd_dp_tuples_total{algorithm="soi",state="generated"}`,
		`soimapd_map_latency_ms_count{algorithm="soi"} 1`,
		"soimapd_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
