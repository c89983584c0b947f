package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		// Reverse order: summarize must sort.
		lat[i] = time.Duration(100-i) * time.Millisecond
	}
	s, err := summarize(lat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail != 90 || s.Beyond != 10 || s.TailP != 90 || s.N != 100 {
		t.Errorf("tail = %v ms at p%v with %d beyond (n=%d), want 90 ms at p90 with 10 beyond", s.Tail, s.TailP, s.Beyond, s.N)
	}
	if s.P50 != 50.5 {
		t.Errorf("p50 = %v, want 50.5 (mean of the middle pair)", s.P50)
	}

	// The smallest window that has a tail: its lowest sample.
	s, err = summarize(lat[:11])
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail != 90 || s.Beyond != 10 || s.P50 != 95 {
		t.Errorf("n=11: tail %v with %d beyond, p50 %v; want 90 with 10 beyond, p50 95", s.Tail, s.Beyond, s.P50)
	}
	if _, err := summarize(lat[:10]); err == nil {
		t.Error("10 samples: want an error, no percentile has 10 samples beyond")
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	sp := func(trace, name string, a, b int) span { return span{trace, name, ms(a), ms(b)} }
	spans := []span{
		sp("t1", "op", 0, 100),
		sp("t1", "a", 10, 50),
		sp("t1", "b", 20, 30), // inside a
		sp("t1", "c", 40, 70), // overlaps a's end: a child of op, not of a
		sp("t1", "d", 60, 65), // inside c
		// Overlapping siblings are covered once.
		sp("t2", "op", 0, 100),
		sp("t2", "x", 10, 40),
		sp("t2", "y", 30, 60),
		// Another trace's spans never nest into t1's.
		sp("t3", "z", 0, 100),
	}
	want := []time.Duration{ms(40), ms(30), ms(10), ms(25), ms(5), ms(50), ms(30), ms(30), ms(100)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	rows := budget(spans)
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
	}
	// The roots cover 300ms; overlapping siblings (a and c, x and y)
	// each keep their shared 10ms.
	if sum != ms(320) {
		t.Errorf("self times sum to %v, want 320ms", sum)
	}
	if r := row(rows, "op"); r.Count != 2 || r.Self != ms(90) || r.Total != ms(200) {
		t.Errorf("op row %+v, want 2 calls, 90ms self, 200ms total", r)
	}
}

func TestSeedFixesOpSequence(t *testing.T) {
	pass := []string{"a", "b", "b", "c"}
	s1, s2 := opSequence(pass, 7, 5), opSequence(pass, 7, 5)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("one seed gave two sequences")
	}
	if reflect.DeepEqual(s1, opSequence(pass, 8, 5)) {
		t.Error("seeds 7 and 8 gave the same sequence")
	}
	for p := 0; p < 5; p++ {
		got := append([]string(nil), s1[p*4:(p+1)*4]...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, pass) {
			t.Errorf("pass %d holds %v, want each entry of %v once", p, got, pass)
		}
	}

	h1, h2 := hitSequence(3, 2), hitSequence(3, 2)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("fleet-hit: one seed gave two sequences")
	}
	count := map[string]int{}
	for _, c := range h1 {
		count[c]++
	}
	if count[hitTail[0]]+count[hitTail[1]] != 4*tailBeyond {
		t.Errorf("fleet-hit holds %d tail ops, want %d", count[hitTail[0]]+count[hitTail[1]], 4*tailBeyond)
	}
	light := 0
	for _, c := range hitLight {
		light += count[c]
	}
	if count[hitMedian] != light {
		t.Errorf("fleet-hit: %d %s ops for %d light ops, want as many", count[hitMedian], hitMedian, light)
	}
}

func TestSeedFixesMissInputs(t *testing.T) {
	blifs := func(seed int64) []string {
		ins, err := missInputs(seed, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, w := range ins {
			for _, in := range w {
				out = append(out, in.req.BLIF)
			}
		}
		return out
	}
	a, b, c := blifs(1), blifs(1), blifs(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two input sets")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 submit in the same order")
	}
	if len(a) != 2*(6+missLarge) {
		t.Errorf("%d inputs, want %d per window", len(a)/2, 6+missLarge)
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("a fleet-miss input repeats, so an op could hit a cache")
		}
		seen[s] = true
	}
	sort.Strings(a)
	sort.Strings(c)
	if !reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 map different networks; t_total would not repeat")
	}
}

func TestBenchmarkJSONNamesWhatTheRunReports(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls, e2e, layers []named
	for _, w := range workloads {
		wls = append(wls, named{Name: w.name})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{m.name, m.unit})
	}
	for _, l := range perLayer {
		layers = append(layers, named{l.Name, l.Unit})
	}
	for _, c := range []struct {
		what      string
		got, want []named
	}{{"workloads", spec.Workloads, wls}, {"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the command reports %v", c.what, c.got, c.want)
		}
	}
}
