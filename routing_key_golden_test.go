package soidomino

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/service"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/routing_keys.golden")

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

// routingKeyLines renders the full golden vector set: every builtin
// benchmark plus the committed testdata circuits, across all option
// variants and algorithms' default ("soi").
func routingKeyLines(t *testing.T) []string {
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

	var lines []string
	for _, src := range sources {
		for _, v := range keyVariants {
			req := src.req
			req.Options = v.opts
			key, err := service.RequestKey(context.Background(), &req)
			if err != nil {
				t.Fatalf("%s/%s: %v", src.label, v.name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", src.label, v.name, key))
		}
	}
	return lines
}

// TestRoutingKeyGolden pins the cluster's routing and cache keys: the
// canonical network hash keyed jointly with the options encoding, for
// every seed circuit × option variant. If this test fails without a
// deliberate canon or options change, routing keys have drifted — a
// rolling upgrade would split the shared cache tier across versions.
// After a deliberate change, regenerate with:
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
				t.Fatalf("routing key drift at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update only if canon/options changed deliberately)", i+1, gl[i], wl[i])
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
