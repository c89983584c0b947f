package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/faultpoint"
	"soidomino/internal/report"
)

// viewOracle is the decoder ParseJobView replaces: json.Unmarshal into a
// JobView.
func viewOracle(b []byte) (*JobView, error) {
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// servedView is one job view as soimapd or soirouter writes it.
type servedView struct {
	name string
	body []byte
}

// served caches the views servedViews builds: the fuzz seeds, the
// allocation guard's and the benchmark's inputs.
var served struct {
	once  sync.Once
	views []servedView
	err   error
}

// servedViews returns a miss and an LRU hit for c880, an LRU hit for
// each of the other fleet-hit circuits, each sent as inline BLIF, a miss
// on a 200-gate synthetic network, the c880 hit as soirouter relays it,
// a job failed by a fault, one canceled at its deadline and a queued
// async job.
func servedViews(tb testing.TB) []servedView {
	tb.Helper()
	served.once.Do(func() { served.views, served.err = serveViews() })
	if served.err != nil {
		tb.Fatal(served.err)
	}
	return served.views
}

// servedBody returns the body of the served view named name.
func servedBody(tb testing.TB, name string) []byte {
	tb.Helper()
	for _, v := range servedViews(tb) {
		if v.name == name {
			return v.body
		}
	}
	tb.Fatalf("no served view %q", name)
	return nil
}

// syntheticView names the served miss on perfbench fleet-miss's
// 200-gate synthetic profile.
const syntheticView = "miss syn200"

func serveViews() ([]servedView, error) {
	faults := faultpoint.New(1)
	s := New(Config{Workers: 1, Faults: faults})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	post := func(body []byte) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("POST %.60s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	var views []servedView
	var c880 []byte
	for _, c := range fleetHitCircuits {
		body, err := requestBody(builtin.MustBuild(c))
		if err != nil {
			return nil, err
		}
		miss, err := post(body)
		if err != nil {
			return nil, err
		}
		if c == "c880" {
			views = append(views, servedView{"miss c880", miss})
		}
		hit, err := post(body)
		if err != nil {
			return nil, err
		}
		views = append(views, servedView{"hit " + c, hit})
		if c == "c880" {
			c880 = hit
		}
	}
	syn := builtin.Synthetic(builtin.SynthParams{Name: "syn200", Seed: 1, Inputs: 32, Outputs: 12, Gates: 200})
	body, err := requestBody(syn)
	if err != nil {
		return nil, err
	}
	miss, err := post(body)
	if err != nil {
		return nil, err
	}
	views = append(views, servedView{syntheticView, miss})

	relayed, _, err := RelayView(bytes.Clone(c880), "1.")
	if err != nil {
		return nil, err
	}
	views = append(views, servedView{"relayed hit c880", relayed})

	faults.Arm(PointQueuePop, faultpoint.Fault{Kind: faultpoint.Error, Prob: 1, Times: 1})
	failed, err := post([]byte(`{"circuit": "mux"}`))
	if err != nil {
		return nil, err
	}
	views = append(views, servedView{"failed mux", failed})
	canceled, err := post([]byte(`{"circuit": "c7552", "timeout_ms": -1}`))
	if err != nil {
		return nil, err
	}
	views = append(views, servedView{"canceled c7552", canceled})

	j := &job{id: "j99", circuit: "c880", algo: report.SOI, state: JobQueued, done: make(chan struct{})}
	rec := httptest.NewRecorder()
	writeView(rec, http.StatusAccepted, j)
	views = append(views, servedView{"queued c880", rec.Body.Bytes()})

	// Each view is the kind its name starts with.
	marks := map[string]string{"miss": `"cache_tier": "miss"`, "hit": `"cached": true`, "relayed": `"id": "1.j`,
		"failed": `"state": "failed"`, "canceled": `"state": "canceled"`, "queued": `"state": "queued"`}
	for _, v := range views {
		kind, _, _ := strings.Cut(v.name, " ")
		if !bytes.HasPrefix(v.body, []byte(viewHead)) || !bytes.Contains(v.body, []byte(marks[kind])) {
			return nil, fmt.Errorf("%s: not such a job view: %.300s", v.name, v.body)
		}
	}
	return views, nil
}

// viewEdgeCases are views on which a decoder most easily parts from
// json.Unmarshal: unknown keys at every depth, key folding, repeats,
// null, number literals, string escapes, invalid UTF-8, nesting depth
// and what may surround the view.
var viewEdgeCases = []string{
	// Unknown keys, holding every kind of value, at every depth.
	`{"id": "j1", "extra": {"a": [1, {"b": null}, []], "c": "x\n\u00e9", "d": {}}, "state": "done"}`,
	`{"result": {"zz": [[[]], {}], "options": {"u": {"v": [true, false, null]}, "max_width": 3},
	  "source": {"w": -1.5e-3, "name": "s"}, "unate": {"w": "x"}, "strash": {"k": {}, "dead": 1},
	  "stats": {"q": [], "t_total": 5}, "gates": [{"id": 1, "w": [0, -0, 1E+2]},
	  {"compound": {"kind": "nand", "x": {"y": [1]}}}], "degraded": true, "more": null}}`,
	`{"attribution": {"y": {"z": []}, "phases_ms": {"dp": 1}, "cache_tier": "local", "zz": [{}]}}`,
	// Case-folded keys; ſ folds to s and the Kelvin sign to k, but no
	// map key folds.
	`{"ID": "j1", "State": "done", "RESULT": {"Stats": {"T_TOTAL": 5}, "GATES": [{"Output": "x", "ID": 3}]},
	  "Attribution": {"Cache_Tier": "local", "PHASES_MS": {"DP": 1, "dp": 2}}}`,
	`{"\u017ftate": "done", "attribution": {"\u017ftra\u017fh_dead": 1}, "result": {"gates": [{"compound": {"\u212aind": "nand"}}]}}`,
	"{\"\u017ftate\": \"done\", \"result\": {\"\u017ftat\u017f\": {\"\u212a\": 1}}}",
	`{"\u0069d": "j1", "st\u0061te": "done"}`,
	// Repeated keys: the last wins, objects merge, and a repeated gates
	// array decodes into the elements the first one left.
	`{"id": "a", "id": "b", "cached": true, "cached": false}`,
	`{"result": {"circuit": "x"}, "result": {"algorithm": "y"}}`,
	`{"result": {"circuit": "x"}, "result": null, "result": {"algorithm": "y"}}`,
	`{"result": {"options": {"max_width": 3}, "options": {"pareto": true}}}`,
	`{"result": {"strash": {"merged": 1}}, "result": {"strash": {"dead": 2}}}`,
	`{"attribution": {"phases_ms": {"dp": 1, "audit": 2}}, "attribution": {"phases_ms": {"dp": 3}}}`,
	`{"attribution": {"phases_ms": {"dp": 1}}, "attribution": {"phases_ms": null}, "attribution": {"phases_ms": {"unate": 2}}}`,
	`{"attribution": {"phases_ms": {"dp": 1, "dp": null}}}`,
	`{"result": {"gates": [{"id": 1, "output": "a"}, {"id": 2, "output": "b"}, {"id": 3}]},
	  "result": {"gates": [{"id": 9}]}, "result": {"gates": [{}, {"level": 4}, null, {"footed": true}]}}`,
	`{"result": {"gates": [{"id": 1}]}, "result": {"gates": []}, "result": {"gates": [{}]}}`,
	`{"result": {"gates": [{"compound": {"kind": "nand"}}]}, "result": {"gates": [{"compound": {"stages": 2}}]}}`,
	`{"result": {"gates": [{"compound": {"kind": "nand"}}]}, "result": {"gates": [{"compound": null}]}}`,
	`{"result": {"gates": [{"id": 1}]}, "result": {"gates": null}}`,
	`{"result": {"gates": null}, "result": {"gates": []}}`,
	`{"result": {"gates": [null, {"id": 1}, null]}}`,
	`{"result": {"stats": {"gates": 1000000000}, "gates": [{"id": 1}]}}`,
	`{"result": {"stats": {"gates": -5}, "gates": [{"id": 1}, {"id": 2}]}}`,
	// null for every field, and after a value.
	`{"id": null, "state": null, "circuit": null, "algorithm": null, "cached": null, "coalesced": null,
	  "recovered": null, "elapsed_ms": null, "error": null, "result": null, "trace_id": null, "attribution": null}`,
	`{"id": "j1", "id": null, "cached": true, "cached": null, "elapsed_ms": 3, "elapsed_ms": null}`,
	`{"result": {"circuit": null, "algorithm": null, "options": null, "source": null, "unate": null,
	  "duplicated_gates": null, "strash": null, "stats": null, "gates": null, "degraded": null}}`,
	`{"result": {"options": {"max_width": null, "max_height": null, "objective": null, "clock_weight": null,
	  "depth_weight": null, "always_footed": null, "pareto": null, "tuple_budget": null,
	  "sequence_aware": null, "strash_off": null}, "source": {"name": null, "inputs": null, "outputs": null,
	  "gates": null, "depth": null}, "strash": {"nodes_in": null, "nodes_out": null, "merged": null,
	  "folded": null, "dead": null}, "stats": {"t_logic": null, "t_disch": null, "t_total": null,
	  "gates": null, "t_clock": null, "levels": null, "input_inverters": null},
	  "gates": [{"id": null, "output": null, "level": null, "pulldown": null, "discharges": null,
	  "footed": null, "compound": {"kind": null, "stages": null}}]}}`,
	`{"attribution": {"replica": null, "trace_id": null, "cache_tier": null, "queue_wait_ms": null,
	  "wall_ms": null, "phases_ms": null, "strash_merged": null, "strash_folded": null,
	  "strash_dead": null, "dp_tuples": null}}`,
	`{"result": {"options": {"max_width": 3}, "options": null}, "result": {"stats": {"t_total": 5}, "stats": null}}`,
	// Floats with exponents and -0, and literals that are not floats.
	`{"attribution": {"queue_wait_ms": 1e3, "wall_ms": -0, "phases_ms": {"dp": 2.5E-3, "audit": -0.0, "x": 1e+2, "y": 0e0}}}`,
	`{"attribution": {"wall_ms": 1e400}}`,
	`{"attribution": {"wall_ms": -1e400}}`,
	`{"attribution": {"wall_ms": 1e-400}}`,
	`{"attribution": {"wall_ms": 123456789012345678901234567890.5}}`,
	`{"attribution": {"wall_ms": .5}}`,
	`{"attribution": {"wall_ms": 1.}}`,
	`{"attribution": {"wall_ms": 01}}`,
	`{"attribution": {"wall_ms": 1e}}`,
	`{"attribution": {"wall_ms": 1e+}}`,
	`{"attribution": {"wall_ms": -}}`,
	`{"attribution": {"wall_ms": +1}}`,
	`{"attribution": {"wall_ms": "1"}}`,
	`{"attribution": {"wall_ms": true}}`,
	`{"attribution": {"phases_ms": {"dp": "1"}}}`,
	`{"attribution": {"phases_ms": []}}`,
	`{"attribution": {"phases_ms": 1}}`,
	// Integers past int, and whole numbers that are no integer literal.
	`{"elapsed_ms": 9223372036854775807}`,
	`{"elapsed_ms": 9223372036854775808}`,
	`{"elapsed_ms": -9223372036854775808}`,
	`{"elapsed_ms": -9223372036854775809}`,
	`{"result": {"stats": {"t_total": 99999999999999999999}}}`,
	`{"attribution": {"dp_tuples": 18446744073709551616}}`,
	`{"elapsed_ms": 1.0}`,
	`{"elapsed_ms": 1e2}`,
	`{"elapsed_ms": -0}`,
	`{"result": {"gates": [{"id": 1.0}]}}`,
	`{"result": {"duplicated_gates": 2E0}}`,
	// Values of the wrong kind.
	`{"id": 1}`,
	`{"state": ["done"]}`,
	`{"cached": "true"}`,
	`{"cached": 1}`,
	`{"result": []}`,
	`{"result": "x"}`,
	`{"result": true}`,
	`{"result": {"gates": {}}}`,
	`{"result": {"gates": [1]}}`,
	`{"result": {"gates": ["x"]}}`,
	`{"result": {"gates": [[]]}}`,
	`{"result": {"options": []}}`,
	`{"result": {"strash": 0}}`,
	`{"result": {"gates": [{"compound": []}]}}`,
	`{"attribution": "local"}`,
	// String escapes, invalid UTF-8 and lone surrogates, in values, keys,
	// map keys and skipped values.
	`{"error": "\ud800 x \udc00 \ud800\udc00 \udbff\udfff \ud800\ud800 \ud800\u0041"}`,
	`{"error": "\u00e9\u0000\u001f\"\\\/\b\f\n\r\t\u2028"}`,
	`{"attribution": {"phases_ms": {"\ud800": 1, "d\u0070": 2}}}`,
	"{\"error\": \"\xff\xfe bad \xed\xa0\x80 \xc0\xaf \xf4\x90\x80\x80 é\"}",
	"{\"\xffid\": 1, \"id\": \"j\xff\"}",
	"{\"attribution\": {\"phases_ms\": {\"d\xffp\": 1, \"dp\": 2}}}",
	"{\"x\": \"\xff\", \"result\": {\"gates\": [{\"output\": \"\xc3\"}]}}",
	`{"error": "\x"}`,
	`{"x": "\u12"}`,
	`{"x": "\'"}`,
	"{\"x\": \"tab\there\"}",
	"{\"error\": \"a\x00b\"}",
	// Syntax at and around the view.
	`{"id": "j1",}`,
	`{, "id": "j1"}`,
	`{"id" "j1"}`,
	`{"id": "j1"`,
	`{"id": "j1`,
	`{"x": [1,]}`,
	`{"x": [1 2]}`,
	`{"x": [,]}`,
	`{"x": {"a" 1}}`,
	`{"x": {1: 2}}`,
	`{"x": tru}`,
	`{"x": nul}`,
	`{"x": falsey}`,
	`{"x": nan}`,
	`{"x": -Infinity}`,
	`{"x": [}`,
	`{"x": ]}`,
	`{}`,
	`null`,
	`null x`,
	`nul`,
	`[]`,
	`"j1"`,
	`7`,
	`true`,
	``,
	" \n\t ",
	" \n\t{\"id\": \"j1\"}\r\n ",
	"{\"id\": \"j1\"}\n",
	`{"id": "j1"} x`,
	`{"id": "j1"}]`,
	`{"id": "j1"} {"id": "j2"}`,
	`{"id": "j1"} null`,
	"\ufeff{\"id\": \"j1\"}",
}

// FuzzParseJobView holds ParseJobView to json.Unmarshal: the same
// accept/reject class, and on accept the same JobView.
func FuzzParseJobView(f *testing.F) {
	for _, v := range servedViews(f) {
		f.Add(v.body)
	}
	for _, s := range viewEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotErr := ParseJobView(b)
		want, wantErr := viewOracle(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("view %.2000q:\n  ParseJobView:   %v\n  json.Unmarshal: %v", b, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("view %.2000q:\n  ParseJobView:   %s\n  json.Unmarshal: %s", b, dumpView(got), dumpView(want))
		}
	})
}

// dumpView renders v with every pointer followed.
func dumpView(v *JobView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", *v)
	if r := v.Result; r != nil {
		fmt.Fprintf(&b, "\n    result %+v", *r)
		if r.Strash != nil {
			fmt.Fprintf(&b, " strash %+v", *r.Strash)
		}
		for i, g := range r.Gates {
			if g.Compound != nil {
				fmt.Fprintf(&b, " gate %d compound %+v", i, *g.Compound)
			}
		}
	}
	if v.Attribution != nil {
		fmt.Fprintf(&b, "\n    attribution %+v", *v.Attribution)
	}
	return b.String()
}

// TestParseJobViewNesting holds ParseJobView to encoding/json's nesting
// limit: 10,000 objects and arrays open at once, the view's own
// included, and not one more.
func TestParseJobViewNesting(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		inner := depth - 2 // the view's own object and the innermost empty one are open too
		for _, c := range []struct{ open, empty, close string }{{"[", "[]", "]"}, {`{"a": `, "{}", "}"}} {
			b := []byte(`{"x": ` + strings.Repeat(c.open, inner) + c.empty + strings.Repeat(c.close, inner) + `}`)
			_, gotErr := ParseJobView(b)
			_, wantErr := viewOracle(b)
			if (gotErr == nil) != (wantErr == nil) || (depth > maxDepth) != (gotErr != nil) {
				t.Errorf("depth %d of %q: ParseJobView %v, json.Unmarshal %v", depth, c.empty, gotErr, wantErr)
			}
		}
	}
}

// TestParseJobViewCoversEveryField: a view with every field of JobView
// and of each struct it reaches set, each to its own value, decodes to
// itself, so a field added to any of them, or a name read into the
// wrong field, fails here.
func TestParseJobViewCoversEveryField(t *testing.T) {
	v := new(JobView)
	next := 0
	fill(reflect.ValueOf(v).Elem(), &next)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJobView(b)
	if err != nil {
		t.Fatalf("%s: %v", b, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("%s decodes to\n%s\nwant\n%s", b, dumpView(got), dumpView(v))
	}
}

// fill sets every exported field v reaches to a value of its own: the
// counter's next number, as a string, a number or a bool; a pointer to
// a filled value; a slice of two filled elements; a map of two.
func fill(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fill(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, next)
			fill(e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), next)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestParseJobViewAllocs is the `make dp-allocs` guard on the client's
// job-view decoder, which soimap -server, the chaos campaigns and
// perfbench's fleets run on every answer. On a served view it allocates
// the JobView, the MapResult, the gates slice presized from the stats,
// the attribution, on a miss its phases map, and the 1 KB chunks the
// strings are cut from: under a dozen allocations, and the gates slice
// plus an eighth of the view in bytes. json.Unmarshal allocates once per
// string, and two to three times the bytes. Env-gated like
// TestParseRequestAllocs.
func TestParseJobViewAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	const allocsCeiling = 12
	for _, name := range []string{"hit c880", "hit des", syntheticView} {
		b := servedBody(t, name)
		v, err := ParseJobView(b)
		if err != nil {
			t.Fatal(err)
		}
		parse := func() {
			if _, err := ParseJobView(b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, parse)
		used := allocBytes(parse)
		oracleAllocs := testing.AllocsPerRun(10, func() { viewOracle(b) })
		oracle := allocBytes(func() { viewOracle(b) })
		gates := len(v.Result.Gates) * int(reflect.TypeOf(GateJSON{}).Size())
		ceiling := float64(gates + len(b)/8 + 2048)
		t.Logf("%s: %d B view, %d gates, %.0f allocs, %.0f B per ParseJobView (ceilings %d, %.0f B; json.Unmarshal %.0f allocs, %.0f B)",
			name, len(b), len(v.Result.Gates), allocs, used, allocsCeiling, ceiling, oracleAllocs, oracle)
		if allocs > allocsCeiling {
			t.Errorf("%s: ParseJobView allocates %.0f times, ceiling %d", name, allocs, allocsCeiling)
		}
		if used > ceiling {
			t.Errorf("%s: ParseJobView allocates %.0f B, ceiling %.0f", name, used, ceiling)
		}
	}
}

// BenchmarkParseJobView reads the LRU-hit views of c880 and des, as a
// fleet-hit client reads them, with ParseJobView and with the
// json.Decoder the client used before it.
func BenchmarkParseJobView(b *testing.B) {
	for _, c := range []string{"c880", "des"} {
		view := servedBody(b, "hit "+c)
		b.Run(c+"/ParseJobView", func(b *testing.B) {
			b.SetBytes(int64(len(view)))
			b.ReportAllocs()
			for range b.N {
				v, err := ParseJobView(view)
				if err != nil {
					b.Fatal(err)
				}
				viewSink = v
			}
		})
		b.Run(c+"/json.Decoder", func(b *testing.B) {
			b.SetBytes(int64(len(view)))
			b.ReportAllocs()
			for range b.N {
				v := new(JobView)
				if err := json.NewDecoder(bytes.NewReader(view)).Decode(v); err != nil {
					b.Fatal(err)
				}
				viewSink = v
			}
		})
	}
}

// viewSink keeps each benchmarked decode's result live.
var viewSink *JobView
