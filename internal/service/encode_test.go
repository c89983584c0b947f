package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// mapSubmission runs src through the daemon's job pipeline (mapNetwork),
// keyed and strashed the way a submission is.
func mapSubmission(circuit string, src *logic.Network, algo report.Algorithm, opt mapper.Options) (*MapResult, error) {
	key, sr := cacheKey(src, algo.Key(), opt)
	j := &job{circuit: circuit, algo: algo, src: src, opt: opt, cacheKey: key, strashed: sr}
	return mapNetwork(context.Background(), j)
}

// TestCLIAndServiceEncodingsMatch pins the contract behind `soimap -json`:
// the CLI's local path (the request resolved by ResolveSpec and
// ParseSource, then PrepareNetworkMode + Pipeline.Map + NewMapResult)
// and the daemon path (mapNetwork) must produce byte-identical JSON for
// the same submission, for every algorithm. cmd/soimap's
// TestCLIMatchesDaemon holds the CLI's own local and -server output
// equal end to end.
func TestCLIAndServiceEncodingsMatch(t *testing.T) {
	const circuit = "mux"
	for _, key := range []string{"domino", "rs", "rsdeep", "soi"} {
		t.Run(key, func(t *testing.T) {
			// CLI path, as cmd/soimap -json composes it.
			ctx := context.Background()
			req := &MapRequest{Circuit: circuit, Algorithm: key}
			a, opt, err := ResolveSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			src, label, err := ParseSource(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			p, err := report.PrepareNetworkMode(ctx, src, opt.StrashOff)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Map(ctx, a, opt, false)
			if err != nil {
				t.Fatal(err)
			}
			cliBytes, err := EncodeJSON(NewMapResult(label, p, res))
			if err != nil {
				t.Fatal(err)
			}

			// Daemon path.
			daemon, err := mapSubmission(circuit, builtin.MustBuild(circuit), a, opt)
			if err != nil {
				t.Fatal(err)
			}
			daemonBytes, err := EncodeJSON(daemon)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(daemonBytes, cliBytes) {
				t.Errorf("CLI and daemon encodings differ:\nCLI:\n%s\ndaemon:\n%s", cliBytes, daemonBytes)
			}
		})
	}
}

func TestEncodeJSONDeterministic(t *testing.T) {
	r, err := mapSubmission("z4ml", builtin.MustBuild("z4ml"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("EncodeJSON is not deterministic")
	}
	if b1[len(b1)-1] != '\n' {
		t.Error("encoding lacks trailing newline")
	}
}

// decoded returns r as a client reads it: encoded, then decoded, so its
// gates are in Gates.
func decoded(tb testing.TB, r *MapResult) *MapResult {
	tb.Helper()
	var d MapResult
	if err := json.Unmarshal(mustEncode(tb, r), &d); err != nil {
		tb.Fatal(err)
	}
	return &d
}

func TestMapResultContents(t *testing.T) {
	held, err := mapSubmission("mux", builtin.MustBuild("mux"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := decoded(t, held)
	if r.Circuit != "mux" || r.Algorithm != "SOI_Domino_Map" {
		t.Errorf("circuit/algorithm = %q/%q", r.Circuit, r.Algorithm)
	}
	if r.Stats.Gates != len(r.Gates) {
		t.Errorf("stats report %d gates but %d encoded", r.Stats.Gates, len(r.Gates))
	}
	if r.Stats.TTotal != r.Stats.TLogic+r.Stats.TDisch {
		t.Errorf("t_total %d != t_logic %d + t_disch %d", r.Stats.TTotal, r.Stats.TLogic, r.Stats.TDisch)
	}
	levels := 0
	disch := 0
	for _, g := range r.Gates {
		if g.Level > levels {
			levels = g.Level
		}
		disch += g.Discharges
	}
	if levels != r.Stats.Levels {
		t.Errorf("max gate level %d != stats levels %d", levels, r.Stats.Levels)
	}
	if disch != r.Stats.TDisch {
		t.Errorf("summed discharges %d != stats t_disch %d", disch, r.Stats.TDisch)
	}
}

// TestNewMapResultPassesCheckEncoding holds the writer's rendering of
// held mapper gates to the wire form: for every registry result, and for
// des under Domino_Map with its gates split into compound gates, the
// encoding of NewMapResult's output must equal MarshalIndent of its
// decoded form and pass checkEncoding (decoded and re-encoded, the same
// bytes), as a store or peer entry of it must.
func TestNewMapResultPassesCheckEncoding(t *testing.T) {
	p, err := report.Prepare("des")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(context.Background(), report.Domino, mapper.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.DefaultCompoundOptions()
	opt.SplitWiderThan = 2
	if cs := mapper.CompoundTransform(res, opt); cs.Converted == 0 {
		t.Fatal("no des gate became compound")
	}
	for _, r := range append(registryResults(t), NewMapResult("des", p, res)) {
		b := mustEncode(t, r)
		if want := marshalOracle(t, decoded(t, r)); !bytes.Equal(b, want) {
			t.Fatalf("%s %s: EncodeJSON of the held gates differs from MarshalIndent of the decoded result:\ngot:\n%s\nwant:\n%s",
				r.Circuit, r.Algorithm, b, want)
		}
		if err := checkEncoding(b); err != nil {
			t.Fatalf("%s %s: %v", r.Circuit, r.Algorithm, err)
		}
	}
}

// TestEncodeAllocs is the `make dp-allocs` guard on the encoding of a
// mapped result: NewMapResult allocates the MapResult and its strash
// summary, and EncodeJSON, writing into a pooled buffer, the exact-size
// output — three allocations, nothing per gate, and the output's bytes
// plus a little. The output's bytes are what one copy of it allocates:
// the heap rounds an object that large up to whole pages. A per-gate
// copy (a []GateJSON of des's 607 gates is 34 KB) overshoots.
// Env-gated like TestKeyAllocs.
func TestEncodeAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	p, err := report.Prepare("des")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(context.Background(), report.SOI, mapper.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	encode := func() {
		if out, err = EncodeJSON(NewMapResult("des", p, res)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, encode)
	used := allocBytes(encode)
	ceiling := allocBytes(func() { encoded = bytes.Clone(out) }) + 1<<10
	t.Logf("des: %d gates, %d B encoded, %.0f allocs, %.0f B per EncodeJSON(NewMapResult) (ceilings 3, %.0f B)",
		len(res.Gates), len(out), allocs, used, ceiling)
	if allocs > 3 {
		t.Errorf("EncodeJSON(NewMapResult) allocates %.0f times on des, ceiling 3", allocs)
	}
	if used > ceiling {
		t.Errorf("EncodeJSON(NewMapResult) allocates %.0f B on des, ceiling %.0f", used, ceiling)
	}
}

// registry caches the MapResults of every registry circuit under
// Domino_Map, RS_Map and SOI_Domino_Map: the fuzz seeds and the encode
// benchmark's inputs.
var registry struct {
	once    sync.Once
	results []*MapResult
	err     error
}

func registryResults(tb testing.TB) []*MapResult {
	tb.Helper()
	registry.once.Do(func() {
		for _, name := range builtin.Names() {
			for _, a := range []report.Algorithm{report.Domino, report.RS, report.SOI} {
				r, err := mapSubmission(name, builtin.MustBuild(name), a, mapper.DefaultOptions())
				if err != nil {
					registry.err = err
					return
				}
				registry.results = append(registry.results, r)
			}
		}
	})
	if registry.err != nil {
		tb.Fatal(registry.err)
	}
	return registry.results
}

// marshalOracle is the encoding EncodeJSON must reproduce byte for byte.
func marshalOracle(tb testing.TB, r *MapResult) []byte {
	tb.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzEncodeJSON holds the hand-written writer to json.MarshalIndent.
// A case picks a registry result (or the zero result) and perturbs a
// copy of it with a raw string — which may hold '<', '>', '&',
// U+2028/2029, control bytes or invalid UTF-8, and is also cut
// mid-rune — an integer that may be negative, and flag bits that switch
// every optional field on and off, make Gates nil or empty, and swap in
// footed and compound gates. The arguments stay small, so the fuzzer
// mutates and minimizes quickly; each registry result seeds the corpus.
func FuzzEncodeJSON(f *testing.F) {
	results := registryResults(f)
	for i := range results {
		f.Add(uint8(i), "", int64(0), uint16(0))
	}
	f.Add(uint8(255), "<a&b>\u2028\u2029\xff\xc3\x00\x1f\b\f\n\r\t\"\\\x7fé", int64(-12), uint16(0xffff))
	f.Add(uint8(3), " \xe2\x80", int64(1)<<40, uint16(0xbf0f))
	// MarshalIndent sees only exported fields: the seeds are the
	// results as decoded, their gates in Gates.
	wire := make([]*MapResult, len(results))
	for i, r := range results {
		wire[i] = decoded(f, r)
	}
	f.Fuzz(func(t *testing.T, pick uint8, s string, n int64, flags uint16) {
		var r MapResult
		if int(pick) < len(wire) {
			r = *wire[pick]
			r.Gates = slices.Clone(r.Gates)
		}
		perturb(&r, s, n, flags)
		want := marshalOracle(t, &r)
		if got := mustEncode(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("EncodeJSON differs from MarshalIndent:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// perturb rewrites r's fields from the fuzz arguments.
func perturb(r *MapResult, s string, n int64, flags uint16) {
	bit := func(i uint) bool { return flags>>i&1 == 1 }
	half := s[:len(s)/2] // may end mid-rune
	v := int(n)
	if bit(0) {
		r.Circuit, r.Algorithm, r.Options.Objective = s, half, s[len(half):]
	}
	if bit(1) {
		r.Source.Name, r.Unate.Name = half, s
	}
	if bit(2) {
		r.Duplicated, r.Options.MaxWidth, r.Options.ClockWeight = v, -v, v>>7
		r.Source.Depth, r.Unate.Inputs, r.Stats.TDisch, r.Stats.InputInverters = -v>>3, v, -v, v>>40
	}
	o := &r.Options
	o.AlwaysFooted, o.Pareto, o.SequenceAware, o.StrashOff = bit(3), bit(4), bit(5), bit(6)
	if bit(7) {
		o.TupleBudget = v
	} else {
		o.TupleBudget = 0
	}
	switch {
	case bit(8):
		r.Strash = nil
	case r.Strash == nil:
		r.Strash = &StrashJSON{NodesIn: v, NodesOut: -v, Merged: 1, Dead: v >> 9}
	}
	r.Degraded = bit(9)
	switch {
	case bit(10):
		r.Gates = nil
	case bit(11):
		r.Gates = []GateJSON{}
	case bit(15):
		r.Gates = []GateJSON{{ID: v, Output: s}, {ID: -v, Output: half, Level: 3}, {Output: "", Discharges: v}}
	}
	for i := range r.Gates {
		g := &r.Gates[i]
		g.Footed = bit(12) != (i%2 == 0)
		switch {
		case bit(13) && i%3 == 1:
			g.Compound = &CompoundJSON{Kind: half, Stages: v}
		case bit(14):
			g.Compound = nil
		}
	}
}

// TestEncodeJSONCoversEveryField fails when MapResult gains a field the
// hand-written writer does not emit: every leaf field of the type tree
// is set to a distinct non-zero value — all at once, then one at a time
// so each omitempty field is seen present and absent — and the writer
// must match MarshalIndent each time. It is the encoding's counterpart
// of TestCacheKeyOptionsEncoding.
func TestEncodeJSONCoversEveryField(t *testing.T) {
	var paths [][]int
	var walk func(typ reflect.Type, path []int)
	walk = func(typ reflect.Type, path []int) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			paths = append(paths, path)
			return
		}
		for i := range typ.NumField() {
			// An unexported field is not on the wire (MapResult.gates is
			// rendered into the gates member, which Gates covers).
			if typ.Field(i).IsExported() {
				walk(typ.Field(i).Type, append(slices.Clone(path), i))
			}
		}
	}
	walk(reflect.TypeOf(MapResult{}), nil)
	if len(paths) < 40 {
		t.Fatalf("walked only %d leaf fields", len(paths))
	}
	// set gives the leaf at path a non-zero value, allocating pointers
	// and one-element slices on the way.
	set := func(r *MapResult, path []int, k int) {
		v := reflect.ValueOf(r).Elem()
		for _, i := range path {
			for v.Kind() == reflect.Pointer || v.Kind() == reflect.Slice {
				if v.IsNil() {
					if v.Kind() == reflect.Pointer {
						v.Set(reflect.New(v.Type().Elem()))
					} else {
						v.Set(reflect.MakeSlice(v.Type(), 1, 1))
					}
				}
				if v.Kind() == reflect.Pointer {
					v = v.Elem()
				} else {
					v = v.Index(0)
				}
			}
			v = v.Field(i)
		}
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d<&>", k))
		case reflect.Int:
			v.SetInt(int64(-k - 1))
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("field path %v has kind %s: teach the writer and this test about it", path, v.Kind())
		}
	}
	all := &MapResult{}
	for k, p := range paths {
		set(all, p, k)
		one := &MapResult{}
		set(one, p, k)
		if got, want := mustEncode(t, one), marshalOracle(t, one); !bytes.Equal(got, want) {
			t.Errorf("field path %v alone: EncodeJSON\n%s\nMarshalIndent\n%s", p, got, want)
		}
	}
	if got, want := mustEncode(t, all), marshalOracle(t, all); !bytes.Equal(got, want) {
		t.Errorf("every field set: EncodeJSON\n%s\nMarshalIndent\n%s", got, want)
	}
}

// encoded keeps BenchmarkEncodeJSON's output live.
var encoded []byte

// BenchmarkEncodeJSON encodes every registry result under the three
// paper algorithms once per iteration.
func BenchmarkEncodeJSON(b *testing.B) {
	rs := registryResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, r := range rs {
			encoded = mustEncode(b, r)
		}
	}
}
