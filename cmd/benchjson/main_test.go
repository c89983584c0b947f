package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: soidomino
cpu: Example CPU @ 2.00GHz
BenchmarkMapDes-8   	     120	   9876543 ns/op	 1234567 B/op	    8901 allocs/op
BenchmarkTableI-8   	    5000	    250000 ns/op
BenchmarkTableII   	       3	 398350132 ns/op	        24.67 disch-red-%	         1.228 total-red-%	129749912 B/op	  780074 allocs/op
--- BENCH: noise line
PASS
ok  	soidomino	3.210s
`

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(out.Bytes(), &base); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if base.Goos != "linux" || base.Goarch != "amd64" || base.Pkg != "soidomino" ||
		base.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("header wrong: %+v", base)
	}
	if len(base.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(base.Records))
	}
	r := base.Records[0]
	if r.Name != "BenchmarkMapDes-8" || r.Procs != 8 || r.Iterations != 120 || r.NsPerOp != 9876543 ||
		r.BytesPerOp != 1234567 || r.AllocsPerOp != 8901 || r.Metrics != nil {
		t.Errorf("record 0 wrong: %+v", r)
	}
	if base.Records[1].BytesPerOp != 0 {
		t.Errorf("record 1 picked up phantom B/op: %+v", base.Records[1])
	}
	// Custom float units survive next to the standard ones, and a name
	// without a -N suffix ran at GOMAXPROCS=1.
	r = base.Records[2]
	if r.Procs != 1 || r.BytesPerOp != 129749912 || r.AllocsPerOp != 780074 ||
		len(r.Metrics) != 2 || r.Metrics["disch-red-%"] != 24.67 || r.Metrics["total-red-%"] != 1.228 {
		t.Errorf("record 2 wrong: %+v", r)
	}
	// Raw must keep exactly what benchstat consumes.
	if strings.Contains(base.Raw, "PASS") || strings.Contains(base.Raw, "noise") {
		t.Errorf("raw kept non-benchmark lines:\n%s", base.Raw)
	}
	for _, want := range []string{"goos: linux", "cpu: Example", "BenchmarkTableI-8"} {
		if !strings.Contains(base.Raw, want) {
			t.Errorf("raw missing %q", want)
		}
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("expected an error on input without benchmark lines")
	}
}
