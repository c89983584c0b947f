package service

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/mapper"
)

// Two BLIF renderings of the same circuit. They differ in every way
// strash is allowed to erase: internal signal names (t1/t2 vs x9/aa),
// declaration order of independent gates, commutative operand order
// inside covers, and a dead logic block present only in the first.
// Structure and interface (model name, inputs, outputs) agree.
const blifTidy = `.model renamed
.inputs a b c
.outputs y z
.names a b t1
11 1
.names b c t2
11 1
.names t1 t2 y
1- 1
-1 1
.names a c u_dead
1- 1
-1 1
.names t1 c z
11 1
.end
`

const blifScrambled = `.model renamed
.inputs a b c
.outputs y z
.names c b aa
11 1
.names b a x9
11 1
.names x9 aa y
1- 1
-1 1
.names x9 c z
11 1
.end
`

// TestStrashCollapsesRenamedSubmissions pins the tentpole cache-hit
// multiplication end to end: two structurally identical but textually
// different BLIF sources resolve to ONE routing key, and the second
// submission is answered byte-identically from the first one's cache
// entry without mapping.
func TestStrashCollapsesRenamedSubmissions(t *testing.T) {
	k1, err := RequestKey(context.Background(), &MapRequest{BLIF: blifTidy})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RequestKey(context.Background(), &MapRequest{BLIF: blifScrambled})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("renamed/reordered sources got distinct keys:\n  %s\n  %s", k1, k2)
	}

	// Without strash the textual differences survive into the declared
	// digest: the keys must split.
	off := &RequestOptions{StrashOff: true}
	o1, err := RequestKey(context.Background(), &MapRequest{BLIF: blifTidy, Options: off})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RequestKey(context.Background(), &MapRequest{BLIF: blifScrambled, Options: off})
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("strash-off submissions unexpectedly share a key (dead logic should split the declared digest)")
	}
	if o1 == k1 {
		t.Fatal("strash_off did not change the routing key")
	}

	// End to end: the scrambled resubmission hits the tidy one's entry.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	code1, v1 := postMap(t, ts, `{"blif": "`+jsonEscape(blifTidy)+`"}`)
	if code1 != http.StatusOK {
		t.Fatalf("tidy submission: code %d", code1)
	}
	if v1.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	code2, v2 := postMap(t, ts, `{"blif": "`+jsonEscape(blifScrambled)+`"}`)
	if code2 != http.StatusOK {
		t.Fatalf("scrambled submission: code %d", code2)
	}
	if !v2.Cached {
		t.Error("structurally identical resubmission missed the cache; strash did not collapse the keys")
	}
	b1, err := EncodeJSON(v1.Result)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(v2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cache-collapsed submissions returned different bytes")
	}
}

// TestStrashOffKeyIsDeclared pins the strash-off key: it digests the
// network exactly as declared, so a twin that re-declares the same
// gates in another order gets its own key, while an identical network
// (a clone, or the same source parsed again) shares it.
func TestStrashOffKeyIsDeclared(t *testing.T) {
	off := mapper.DefaultOptions()
	off.StrashOff = true
	for _, name := range []string{"mux", "z4ml", "c880"} {
		src := builtin.MustBuild(name)
		key := CacheKey(src, "soi", off)
		if got := CacheKey(src.Clone(), "soi", off); got != key {
			t.Errorf("%s: identical network got another strash-off key:\n  %s\n  %s", name, key, got)
		}
		if got := CacheKey(builtin.MustBuild(name), "soi", off); got != key {
			t.Errorf("%s: rebuilt network got another strash-off key", name)
		}
		twin := src.ShuffledTwin(rand.New(rand.NewSource(1)))
		if CacheKey(twin, "soi", off) == key {
			t.Errorf("%s: re-declared twin shares the strash-off key", name)
		}
	}
}

// jsonEscape renders a BLIF text as a JSON string body fragment.
func jsonEscape(s string) string {
	out := make([]byte, 0, len(s)+16)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\n':
			out = append(out, '\\', 'n')
		case '"':
			out = append(out, '\\', '"')
		case '\\':
			out = append(out, '\\', '\\')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// TestServerStrashOffConfig pins the server-wide opt-out: with
// Config.StrashOff the resolved options carry strash_off into both the
// pipeline and the cache key, so a strash-on router would route such a
// fleet's keys differently — the flag must be fleet-uniform (see the
// Config.StrashOff doc).
func TestServerStrashOffConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, StrashOff: true})
	code, v := postMap(t, ts, `{"circuit": "mux"}`)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if !v.Result.Options.StrashOff {
		t.Error("Config.StrashOff did not reach the resolved options")
	}
	if v.Result.Strash != nil {
		t.Error("strash ran despite Config.StrashOff")
	}
}

// TestMapResultCarriesStrashCounters: a default (strash-on) run reports
// the front-end reduction in the encoded result.
func TestMapResultCarriesStrashCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	code, v := postMap(t, ts, `{"blif": "`+jsonEscape(blifTidy)+`"}`)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	st := v.Result.Strash
	if st == nil {
		t.Fatal("strash-on result missing strash summary")
	}
	if st.Dead == 0 {
		t.Errorf("dead block not reported: %+v", st)
	}
	if st.NodesOut >= st.NodesIn {
		t.Errorf("no reduction reported: %+v", st)
	}
}
