package soidomino

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// TestKeyFaithfulness: the strash-on cache key claims that a submission
// and its re-declared, internally renamed twin are the same job. For
// every registry circuit and each of Domino_Map, RS_Map and
// SOI_Domino_Map, a seeded twin must share the service cache key and
// encode to byte-identical results, so serving one's cached answer for
// the other is faithful.
func TestKeyFaithfulness(t *testing.T) {
	opt := mapper.DefaultOptions()
	for i, name := range bench.Names() {
		src := bench.MustBuild(name)
		twin := src.ShuffledTwin(rand.New(rand.NewSource(int64(i) + 1)))
		if err := twin.Check(); err != nil {
			t.Fatalf("%s: twin invalid: %v", name, err)
		}
		if twin.Dump() == src.Dump() {
			t.Fatalf("%s: twin is a verbatim copy; the check would be vacuous", name)
		}
		pipe, err := report.PrepareNetwork(src)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		twinPipe, err := report.PrepareNetwork(twin)
		if err != nil {
			t.Fatalf("%s: prepare twin: %v", name, err)
		}
		for _, algo := range []string{"domino", "rs", "soi"} {
			if k, kt := service.CacheKey(src, algo, opt), service.CacheKey(twin, algo, opt); k != kt {
				t.Errorf("%s/%s: twin key differs:\n  %s\n  %s", name, algo, k, kt)
				continue
			}
			want := encodeMapping(t, name, algo, pipe, opt)
			if got := encodeMapping(t, name, algo, twinPipe, opt); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: twin shares the key but encodes differently", name, algo)
			}
		}
	}
}

// TestPOOrderKeyFaithfulness: primary-output order is part of a
// submission — the encoding lists outputs in declaration order — so a
// twin that declares the same outputs in reverse order must either get
// its own cache key or encode byte-identically. Sharing a key while
// encoding differently would serve one submission's output order to the
// other from cache.
func TestPOOrderKeyFaithfulness(t *testing.T) {
	opt := mapper.DefaultOptions()
	cases := 0
	for _, name := range bench.Names() {
		src := bench.MustBuild(name)
		if len(src.Outputs) < 2 {
			continue
		}
		twin := src.Clone()
		slices.Reverse(twin.Outputs)
		var pipe, twinPipe *report.Pipeline
		for _, algo := range []string{"domino", "rs", "soi"} {
			cases++
			if service.CacheKey(src, algo, opt) != service.CacheKey(twin, algo, opt) {
				continue
			}
			if pipe == nil {
				var err error
				if pipe, err = report.PrepareNetwork(src); err != nil {
					t.Fatalf("%s: prepare: %v", name, err)
				}
				if twinPipe, err = report.PrepareNetwork(twin); err != nil {
					t.Fatalf("%s: prepare twin: %v", name, err)
				}
			}
			if !bytes.Equal(encodeMapping(t, name, algo, pipe, opt), encodeMapping(t, name, algo, twinPipe, opt)) {
				t.Errorf("%s/%s: PO-reversed twin shares the key but encodes differently", name, algo)
			}
		}
	}
	if cases == 0 {
		t.Fatal("no multi-output registry circuit; the check would be vacuous")
	}
}

// encodeMapping maps a prepared pipeline and returns its service encoding.
func encodeMapping(t *testing.T, name, algo string, pipe *report.Pipeline, opt mapper.Options) []byte {
	t.Helper()
	res, err := mapByAlgo(algo, pipe.Unate, opt)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, algo, err)
	}
	b, err := service.EncodeJSON(service.NewMapResult(name, pipe, res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
