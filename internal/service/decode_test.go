package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
)

// decodeOracle is the decoder ParseRequest replaces: json.Decoder with
// DisallowUnknownFields, then nothing but JSON white space after the
// value.
func decodeOracle(body []byte) (*MapRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req MapRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, errAfterObject
	}
	return &req, nil
}

// fleetHitCircuits is perfbench's fleet-hit working set, whose inline
// BLIF bodies are the served path's hottest input.
var fleetHitCircuits = []string{"frg1", "t481", "c8", "b9", "c432", "x-csa16", "dalu", "apex7", "x1",
	"c880", "i6", "apex6", "k2", "des", "c499", "c1355"}

// blifBody is the request body client.Map sends for a registry circuit
// submitted as inline BLIF.
func blifBody(tb testing.TB, circuit string) []byte {
	tb.Helper()
	body, err := requestBody(builtin.MustBuild(circuit))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// requestBody is the request body client.Map sends for n as inline BLIF.
func requestBody(n *logic.Network) ([]byte, error) {
	var b bytes.Buffer
	if err := blif.Write(&b, n); err != nil {
		return nil, err
	}
	return json.Marshal(&MapRequest{BLIF: b.String()})
}

// decodeEdgeCases are bodies on which a decoder most easily parts from
// encoding/json: key folding, repeats, null, integer literals, string
// escapes, invalid UTF-8 and what may surround the object.
var decodeEdgeCases = []string{
	`{"circuit": "mux"}`,
	`{"circuit": "mux", "options": {"workers": 4}}`,
	`{"circuit": "mux", "options": {"pareto": true, "workerz": 4}}`,
	`{"circuit": "mux", "optoins": {"pareto": true}}`,
	`{"BLIF": ".model t\n.end\n"}`,
	`{"Circuit": "mux", "ALGORITHM": "Soi", "Options": {"MAX_width": 3, "Strash_Off": true}}`,
	`{"circuit": "mut", "circuit": "mux"}`,
	`{"circuit": "mux", "circuit": null}`,
	`{"options": {"pareto": true}, "options": {"max_width": 3}}`,
	`{"options": {"pareto": true}, "options": null}`,
	`{"options": {"pareto": true}, "options": null, "options": {}}`,
	`{"options": 3}`,
	`{"circuit": "mux", "timeout_ms": 1.5}`,
	`{"circuit": "mux", "timeout_ms": 1e3}`,
	`{"circuit": "mux", "timeout_ms": 1E3}`,
	`{"circuit": "mux", "timeout_ms": -0}`,
	`{"circuit": "mux", "timeout_ms": -9223372036854775808}`,
	`{"circuit": "mux", "timeout_ms": 9223372036854775808}`,
	`{"circuit": "mux", "timeout_ms": 012}`,
	`{"circuit": "mux", "timeout_ms": -}`,
	`{"circuit": "mux", "timeout_ms": "5"}`,
	`{"circuit": "mux", "timeout_ms": null, "async": null}`,
	`{"circuit": "mux", "async": true, "async": false}`,
	`{"circuit": "mux", "async": 1}`,
	`{"circuit": "mux", "async": tru}`,
	`{"circuit": 7}`,
	"{\"blif\": \"# \xff\xfe\\n.model t\\n.end\\n\"}",
	`{"blif": "# \ud800\n.model t\n.end\n"}`,
	`{"blif": "\ud800\udc00 \udbff\udfff \ud800\ud800 \udc00 \ud800x \ud800\u0041"}`,
	`{"blif": "\u00e9\u0000\u001f\"\\\/\b\f\n\r\t\u2028"}`,
	`{"blif": "\x"}`,
	`{"blif": "\u12"}`,
	`{"blif": "\'"}`,
	"{\"blif\": \"tab\there\"}",
	"{\"blif\": \"\xed\xa0\x80 \xc0\xaf \xf4\x90\x80\x80 é\"}",
	`{"\u0063ircuit": "mux"}`,
	"{\"\u017ftrash_off\": true, \"circuit\": \"mux\"}", // ſ folds to s
	"{\"wor\u212aers\": 2, \"circuit\": \"mux\"}",       // the Kelvin sign folds to k
	`{"circuit": "mux", }`,
	`{, "circuit": "mux"}`,
	`{"circuit" "mux"}`,
	`{"circuit": "mux"`,
	`{"circuit": "mux`,
	`{}`,
	`null`,
	`null x`,
	`nul`,
	`[]`,
	`"mux"`,
	`7`,
	``,
	" \n\t ",
	" \n\t{\"circuit\": \"mux\"}\r\n ",
	`{"circuit": "mux"} {"circuit": "z4ml"}`,
	`{"circuit": "mux"}]`,
	"\ufeff{\"circuit\": \"mux\"}",
}

// FuzzParseRequest holds ParseRequest to encoding/json: the same
// accept/reject class, and on accept the same MapRequest.
func FuzzParseRequest(f *testing.F) {
	for _, body := range decodeEdgeCases {
		f.Add([]byte(body))
	}
	for _, c := range fleetHitCircuits {
		f.Add(blifBody(f, c))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := ParseRequest(body)
		want, wantErr := decodeOracle(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q:\n  ParseRequest: %v\n  json.Decoder: %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n  ParseRequest: %+v %+v\n  json.Decoder: %+v %+v", body, got, got.Options, want, want.Options)
		}
	})
}

// TestParseRequestCoversEveryField: a request with any one field of
// MapRequest or RequestOptions set decodes to itself, so a field added
// to either struct, or a name read into the wrong field, fails here.
func TestParseRequestCoversEveryField(t *testing.T) {
	for _, inOptions := range []bool{false, true} {
		typ := reflect.TypeOf(MapRequest{})
		if inOptions {
			typ = reflect.TypeOf(RequestOptions{})
		}
		for i := 0; i < typ.NumField(); i++ {
			req := &MapRequest{}
			v := reflect.ValueOf(req).Elem()
			if inOptions {
				req.Options = &RequestOptions{}
				v = reflect.ValueOf(req.Options).Elem()
			}
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString("x")
			case reflect.Int, reflect.Int64:
				f.SetInt(7)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
			default:
				t.Fatalf("%s.%s: unhandled kind %s", typ, typ.Field(i).Name, f.Kind())
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseRequest(body)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("%s decodes to %+v %+v", body, got, got.Options)
			}
		}
	}
}

// TestParseRequestAllocs is the `make dp-allocs` guard on the request
// decoder, which soimapd runs on every submission and soirouter on every
// key-memo miss. On the inline BLIF bodies of des and c499 it allocates
// the request and one string of the BLIF's unescaped size, about the
// body's size in all; json.Decoder allocated about five times the body.
// A string with no escapes costs the same two allocations. Env-gated
// like TestKeyAllocs.
func TestParseRequestAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	plain, err := json.Marshal(&MapRequest{BLIF: strings.Repeat(".names a b y ", 3000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"des", blifBody(t, "des")},
		{"c499", blifBody(t, "c499")},
		{"no escapes", plain},
	} {
		parse := func() {
			if _, err := ParseRequest(tc.body); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, parse)
		bytes := allocBytes(parse)
		oracle := allocBytes(func() { decodeOracle(tc.body) })
		ceiling := 1.1*float64(len(tc.body)) + 256
		t.Logf("%s: %d B body, %.0f allocs, %.0f B per ParseRequest (ceiling %.0f; json.Decoder %.0f B)",
			tc.name, len(tc.body), allocs, bytes, ceiling, oracle)
		if allocs > 2 {
			t.Errorf("%s: ParseRequest allocates %.0f times, want 2 (the request and its string)", tc.name, allocs)
		}
		if bytes > ceiling {
			t.Errorf("%s: ParseRequest allocates %.0f B, ceiling %.0f", tc.name, bytes, ceiling)
		}
	}
}

// allocBytes returns the bytes f allocates per call, averaged over a few
// calls on one P, as testing.AllocsPerRun counts allocations.
func allocBytes(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// BenchmarkParseRequest decodes the inline BLIF body of des, fleet-hit's
// largest registry body after the XOR-heavy pair.
func BenchmarkParseRequest(b *testing.B) {
	body := blifBody(b, "des")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ParseRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
