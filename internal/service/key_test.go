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
// followed by blank lines, once in 80-byte lines and once in 1-byte
// ones. RequestKey presizes strash's tables from the text's length;
// capped at the default node limit, the hint costs tens of megabytes,
// where the uncapped hint (about 980,000 entries) cost 185 MB. The BLIF
// reader sizes its own tables from the lines that hold a directive or a
// cover row, so blank lines cost it nothing; sized from the raw line
// count, the 1-byte padding allocated about 570 MB. The ceiling is read
// from process-wide TotalAlloc, so it also counts whatever else
// allocates during the call; no test in this package runs in parallel
// with it.
func TestKeyPresizeBounded(t *testing.T) {
	var b bytes.Buffer
	if err := blif.Write(&b, builtin.MustBuild("mux")); err != nil {
		t.Fatal(err)
	}
	want, err := RequestKey(context.Background(), &MapRequest{BLIF: b.String()})
	if err != nil {
		t.Fatal(err)
	}
	const size = 15 << 20
	for _, line := range []string{strings.Repeat(" ", 79) + "\n", "\n"} {
		req := &MapRequest{BLIF: b.String() + strings.Repeat(line, size/len(line))}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := RequestKey(context.Background(), req)
		runtime.ReadMemStats(&after)
		if err != nil || got != want {
			t.Fatalf("mux padded with %d-byte lines keyed %q, %v; want %q", len(line), got, err, want)
		}
		const ceiling = 64 << 20
		if n := after.TotalAlloc - before.TotalAlloc; n > ceiling {
			t.Errorf("keying %d bytes of BLIF padded with %d-byte lines allocated %.1f MB, ceiling %d MB",
				len(req.BLIF), len(line), float64(n)/(1<<20), ceiling>>20)
		}
	}
}
