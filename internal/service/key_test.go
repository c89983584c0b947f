package service

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/blif/corpus"
)

// keyVariants are the option spellings the key-agreement test crosses
// every corpus source with: the routing-key golden's variants.
var keyVariants = []struct {
	name string
	opts *RequestOptions
}{
	{"default", nil},
	{"depth", &RequestOptions{Objective: "depth"}},
	{"footed", &RequestOptions{AlwaysFooted: true}},
	{"k2", &RequestOptions{ClockWeight: 2}},
	{"pareto", &RequestOptions{Pareto: true}},
	{"pareto-b8", &RequestOptions{Pareto: true, TupleBudget: 8}},
	{"seq", &RequestOptions{SequenceAware: true}},
	{"strash-off", &RequestOptions{StrashOff: true}},
	{"workers4", &RequestOptions{Workers: 4}},
}

// TestRequestKeyMatchesResolve holds RequestKey, which keys an inline
// BLIF source straight from its text when strash is on, to the key
// resolve derives by parsing the network and strashing it, for every
// corpus source under every option spelling. A source one path rejects
// the other must reject with the same error.
func TestRequestKeyMatchesResolve(t *testing.T) {
	srcs, err := corpus.Sources("../..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, src := range srcs {
		for _, v := range keyVariants {
			req := &MapRequest{BLIF: src.Text, Options: v.opts}
			got, gotErr := RequestKey(ctx, req)
			var want string
			j, _, wantErr := resolve(ctx, req, 0)
			if wantErr == nil {
				want = j.cacheKey
			}
			if errText(gotErr) != errText(wantErr) || got != want {
				t.Fatalf("%s/%s:\n  RequestKey: %q %v\n  resolve:    %q %v", src.Label, v.name, got, gotErr, want, wantErr)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// keyAllocsCeiling pins RequestKey's allocations on the inline BLIF of
// des: the reader's signal table and flat covers, sized from the text,
// then strash's presized tables — 82 at the time of writing, none per
// gate, with a little headroom. Parsing into a network first, as the
// key once did, costs about 20,000.
const keyAllocsCeiling = 90

// TestKeyAllocs is the `make dp-allocs` guard on the routing key, which
// soirouter computes for every submission. Env-gated like the mapper's
// TestDPAllocs so plain `go test ./...` skips it.
func TestKeyAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	var b bytes.Buffer
	if err := blif.Write(&b, builtin.MustBuild("des")); err != nil {
		t.Fatal(err)
	}
	req := &MapRequest{BLIF: b.String()}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RequestKey(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("des: %.0f allocs per RequestKey (ceiling %d)", allocs, keyAllocsCeiling)
	if allocs > keyAllocsCeiling {
		t.Errorf("RequestKey allocates %.0f times on des, ceiling %d", allocs, keyAllocsCeiling)
	}
}

// TestKeyPresizeBounded keys a 15 MB inline BLIF that is a small circuit
// followed by blank lines. RequestKey presizes strash's tables from the
// text's length; capped at the default node limit, the hint costs tens
// of megabytes, where the uncapped hint (about 980,000 entries) cost
// 185 MB. The blank lines are 80 bytes long so that the test measures
// strash's hint alone: the BLIF reader presizes its own tables from the
// line count, so the same 15 MB in 1-byte lines allocates about 570 MB
// and would exceed this ceiling. That is a known gap in the reader,
// tracked by ROADMAP item 3 and the CHANGES.md FOUND line on
// internal/blif's newParser. The ceiling is read from process-wide
// TotalAlloc, so it also counts whatever else allocates during the call;
// no test in this package runs in parallel with it.
func TestKeyPresizeBounded(t *testing.T) {
	var b bytes.Buffer
	if err := blif.Write(&b, builtin.MustBuild("mux")); err != nil {
		t.Fatal(err)
	}
	const size = 15 << 20
	line := strings.Repeat(" ", 79) + "\n"
	req := &MapRequest{BLIF: b.String() + strings.Repeat(line, size/len(line))}
	want, err := RequestKey(context.Background(), &MapRequest{BLIF: b.String()})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := RequestKey(context.Background(), req)
	runtime.ReadMemStats(&after)
	if err != nil || got != want {
		t.Fatalf("padded mux keyed %q, %v; want %q", got, err, want)
	}
	const ceiling = 64 << 20
	if n := after.TotalAlloc - before.TotalAlloc; n > ceiling {
		t.Errorf("keying %d bytes of mostly blank BLIF allocated %.1f MB, ceiling %d MB",
			len(req.BLIF), float64(n)/(1<<20), ceiling>>20)
	}
}
