// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark baseline. The JSON carries both parsed per-benchmark
// records (name, GOMAXPROCS, iterations, ns/op, B/op, allocs/op and every
// custom b.ReportMetric unit) and the raw benchmark lines, so the file
// stays consumable by benchstat:
//
//	go test -bench=. -benchmem -count=5 -run='^$' | benchjson > BENCH_2026-08-05.json
//	jq -r .raw BENCH_2026-08-05.json | benchstat old.txt -
//
// `make bench-baseline` wraps the first command; see the Observability
// section of README.md.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the line ran at: the name's -N suffix, or 1
	// when the name has none (go test omits it at GOMAXPROCS=1).
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric units (disch-red-%, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file format: metadata, parsed records, and the raw
// benchmark text (goos/goarch/pkg headers plus result lines) for
// benchstat.
type Baseline struct {
	Date    string   `json:"date"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Records []Record `json:"records"`
	Raw     string   `json:"raw"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	base := Baseline{Date: time.Now().UTC().Format("2006-01-02")}
	var raw strings.Builder
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			base.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		if keepRaw(line) {
			raw.WriteString(line)
			raw.WriteByte('\n')
		}
		if rec, ok := parseLine(line); ok {
			base.Records = append(base.Records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(base.Records) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin (expected `go test -bench` output)")
	}
	base.Raw = raw.String()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(base)
}

// keepRaw selects the lines benchstat needs: the environment header and
// the Benchmark result lines (PASS/ok trailers and -v noise are dropped).
func keepRaw(line string) bool {
	return strings.HasPrefix(line, "goos: ") ||
		strings.HasPrefix(line, "goarch: ") ||
		strings.HasPrefix(line, "pkg: ") ||
		strings.HasPrefix(line, "cpu: ") ||
		strings.HasPrefix(line, "Benchmark")
}

// parseLine parses one result line of the standard form
//
//	BenchmarkName-8   120   9876543 ns/op   24.67 disch-red-%   1234 B/op   56 allocs/op
//
// Returns ok=false for anything else.
func parseLine(line string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Record{}, false
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Record{}, false
	}
	rec := Record{Name: f[0], Procs: 1, Iterations: iters, NsPerOp: ns}
	if i := strings.LastIndexByte(f[0], '-'); i >= 0 {
		if p, err := strconv.Atoi(f[0][i+1:]); err == nil && p > 0 {
			rec.Procs = p
		}
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			rec.BytesPerOp = int64(v)
		case "allocs/op":
			rec.AllocsPerOp = int64(v)
		default:
			if rec.Metrics == nil {
				rec.Metrics = make(map[string]float64)
			}
			rec.Metrics[unit] = v
		}
	}
	return rec, true
}
