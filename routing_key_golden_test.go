package soidomino

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/cluster"
	"soidomino/internal/service"
)

var updateKeys = flag.Bool("update", false, "rewrite the golden file of each selected test (testdata/routing_keys.golden, testdata/frontend.golden, testdata/blif_parse.golden, testdata/mapping.golden)")

// keyVariants are the option spellings the golden file pins, one per
// line. Every distinct cache entry a replica can hold — and every
// routing decision soirouter can make — derives from these keys, so a
// drift here silently splits the cluster's cache (the same circuit
// routed and cached under two names). The workers4 variant must NOT
// appear as a distinct key: options.workers is accepted for old clients
// but ignored, so it is excluded from the canonical options encoding.
var keyVariants = []struct {
	name string
	opts *service.RequestOptions
}{
	{"default", nil},
	{"depth", &service.RequestOptions{Objective: "depth"}},
	{"footed", &service.RequestOptions{AlwaysFooted: true}},
	{"k2", &service.RequestOptions{ClockWeight: 2}},
	{"pareto", &service.RequestOptions{Pareto: true}},
	{"pareto-b8", &service.RequestOptions{Pareto: true, TupleBudget: 8}},
	{"seq", &service.RequestOptions{SequenceAware: true}},
	{"strash-off", &service.RequestOptions{StrashOff: true}},
	{"workers4", &service.RequestOptions{Workers: 4}},
}

// keyVector is one golden line's submission: a source label, an option
// variant name and the request they make.
type keyVector struct {
	label, variant string
	req            service.MapRequest
}

// routingKeyVectors is the full golden vector set: every builtin
// benchmark plus the committed testdata circuits, across all option
// variants and algorithms' default ("soi"), in golden-file order.
func routingKeyVectors(t *testing.T) []keyVector {
	t.Helper()
	type source struct {
		label string
		req   service.MapRequest
	}
	var sources []source
	for _, name := range bench.Names() {
		sources = append(sources, source{label: name, req: service.MapRequest{Circuit: name}})
	}
	for _, f := range []struct{ label, path, kind string }{
		{"testdata/maj.blif", "testdata/maj.blif", "blif"},
		{"testdata/c17.bench", "testdata/c17.bench", "bench"},
	} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		req := service.MapRequest{}
		if f.kind == "blif" {
			req.BLIF = string(b)
		} else {
			req.Bench = string(b)
		}
		sources = append(sources, source{label: f.label, req: req})
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].label < sources[j].label })

	var vecs []keyVector
	for _, src := range sources {
		for _, v := range keyVariants {
			req := src.req
			req.Options = v.opts
			vecs = append(vecs, keyVector{src.label, v.name, req})
		}
	}
	return vecs
}

// routingKeyLines renders the golden file's lines: each vector and its
// key.
func routingKeyLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, v := range routingKeyVectors(t) {
		key, err := service.RequestKey(context.Background(), &v.req)
		if err != nil {
			t.Fatalf("%s/%s: %v", v.label, v.variant, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", v.label, v.variant, key))
	}
	return lines
}

// TestRoutingKeyGolden pins the cluster's routing and cache keys: the
// strash structural digest (strash.Result.Key; the declared-network
// digest under strash_off) keyed jointly with the options encoding, for
// every seed circuit × option variant. If this test fails without a
// deliberate change to the strash key or the options encoding, routing
// keys have drifted — a rolling upgrade would split the shared cache
// tier across versions. After a deliberate change, regenerate with:
//
//	go test -run TestRoutingKeyGolden -update .
func TestRoutingKeyGolden(t *testing.T) {
	lines := routingKeyLines(t)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/routing_keys.golden"
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("routing key drift at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update only if the strash key or the options encoding changed deliberately)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("routing key vectors differ in length: %d vs %d lines", len(gl), len(wl))
	}
}

// TestRoutingKeyWorkersExcluded pins the consistency contract's key
// clause directly: a request differing only in the deprecated, ignored
// Workers option must produce the SAME routing key; splitting the cache
// by it would only lose hits.
func TestRoutingKeyWorkersExcluded(t *testing.T) {
	base, err := service.RequestKey(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := service.RequestKey(context.Background(), &service.MapRequest{
		Circuit: "mux", Options: &service.RequestOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base != w4 {
		t.Fatalf("Workers leaked into the routing key:\n  default:  %s\n  workers4: %s", base, w4)
	}

	// And an option that IS semantic must change the key.
	footed, err := service.RequestKey(context.Background(), &service.MapRequest{
		Circuit: "mux", Options: &service.RequestOptions{AlwaysFooted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base == footed {
		t.Fatal("AlwaysFooted did not change the routing key")
	}
}

// TestRoutingKeyGoldenThroughRouter submits every golden vector through
// a router: the key it forwards to the replica must be the golden key,
// and the replica, deriving the key itself, must agree every time
// (key_mismatches stays 0). Each job is submitted already expired, so
// it ends at the DP's first checkpoint instead of mapping.
func TestRoutingKeyGoldenThroughRouter(t *testing.T) {
	want, err := os.ReadFile("testdata/routing_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1})
	var mu sync.Mutex
	var forwarded string
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/map" {
			mu.Lock()
			forwarded = r.Header.Get(service.KeyHeader)
			mu.Unlock()
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	defer func() {
		rep.Close()
		svc.Shutdown(context.Background())
	}()
	rt, err := cluster.New(cluster.Config{Replicas: []string{rep.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	vecs := routingKeyVectors(t)
	if len(lines) != len(vecs) {
		t.Fatalf("golden has %d lines, the vector set %d", len(lines), len(vecs))
	}
	for i, v := range vecs {
		req := v.req
		req.TimeoutMS = -1
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(router.URL+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", v.label, v.variant, resp.StatusCode)
		}
		mu.Lock()
		got := v.label + " " + v.variant + " " + forwarded
		mu.Unlock()
		if got != lines[i] {
			t.Fatalf("forwarded key drifted from the golden:\n  got:  %s\n  want: %s", got, lines[i])
		}
	}
	if n := svc.Counter("key_mismatches"); n != 0 {
		t.Fatalf("key_mismatches = %d, want 0", n)
	}
}
