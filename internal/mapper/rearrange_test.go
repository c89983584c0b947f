package mapper

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRearrangeConcurrent derives RS_Map and RS_Map_deep from one
// Domino_Map result on several goroutines at once (run it under -race):
// every derivation must equal the direct run, and the Domino result must
// be unchanged afterwards, so Rearrange only ever reads its input.
func TestRearrangeConcurrent(t *testing.T) {
	for _, name := range []string{"c880", "des"} {
		n := unateBench(t, name)
		opt := DefaultOptions()
		opt.BaselineStackOrder = OrderHashed
		dom, err := DominoMap(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		pristine, err := DominoMap(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		direct := map[bool]*Result{}
		for _, deep := range []bool{false, true} {
			direct[deep], err = rsMapRun(context.Background(), n, opt, deep)
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			deep := g%2 == 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Rearrange(dom, deep)
				if err != nil {
					t.Error(err)
					return
				}
				if err := got.Audit(); err != nil {
					t.Errorf("%s %s: %v", name, rsName(deep), err)
				}
				if want := direct[deep]; got.Dump() != want.Dump() || !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: derived result differs from the direct run:\n%s\nvs\n%s",
						name, rsName(deep), got.Dump(), want.Dump())
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(dom, pristine) {
			t.Fatalf("%s: Rearrange modified its Domino_Map input", name)
		}
	}
}

// TestRearrangeRefuses: Rearrange derives only from an uncompounded
// Domino_Map result; an SOI result, an RS result and a compound-
// transformed Domino result are refused, untouched.
func TestRearrangeRefuses(t *testing.T) {
	n := unateBench(t, "c880")
	opt := DefaultOptions()
	soi, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RSMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := DominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	cs := CompoundTransform(compound, DefaultCompoundOptions())
	if cs.Converted == 0 {
		t.Fatal("c880: CompoundTransform converted no gate; the case tests nothing")
	}
	for _, tc := range []struct {
		name string
		res  *Result
		want string
	}{
		{"SOI", soi, "not SOI_Domino_Map"},
		{"RS", rs, "not RS_Map"},
		{"compound", compound, "is compound"},
	} {
		before := tc.res.Dump()
		for _, deep := range []bool{false, true} {
			got, err := Rearrange(tc.res, deep)
			if err == nil || got != nil {
				t.Fatalf("%s (deep=%v): Rearrange accepted it", tc.name, deep)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (deep=%v): error %q, want it to say %q", tc.name, deep, err, tc.want)
			}
		}
		if tc.res.Dump() != before {
			t.Errorf("%s: a refused Rearrange modified its input", tc.name)
		}
	}
}
