package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// traceCircuit is the circuit both single-clock tests map.
const traceCircuit = "c880"

// timedPhases maps each timed phase's span name to its phase: a traced
// run measures the phase once, so the span's duration and the
// Stats/Attribution time come from the same two clock reads. (A
// replica's strash runs on the key path, outside the job's Stats, so
// its span is not among them.)
var timedPhases = map[string]string{
	"decompose " + traceCircuit: "decompose",
	"unate " + traceCircuit:     "unate",
	"SOI_Domino_Map dp":         "dp",
	"SOI_Domino_Map traceback":  "traceback",
	"audit " + traceCircuit:     "audit",
}

// phaseSpans indexes a run's pipeline and mapper spans, all but the
// zero-length run instant, by name: its phase spans.
func phaseSpans(t *testing.T, spans []obs.Span) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, s := range spans {
		if (s.Cat != "pipeline" && s.Cat != "mapper") || strings.HasPrefix(s.Name, "run ") {
			continue
		}
		if _, dup := out[s.Name]; dup {
			t.Fatalf("phase span %q recorded twice", s.Name)
		}
		out[s.Name] = s.DurUS
	}
	return out
}

// checkOneClock holds every timed phase's span to its attribution time
// in µs.
func checkOneClock(t *testing.T, spans map[string]int64, phasesMS map[string]float64) {
	t.Helper()
	for name, phase := range timedPhases {
		dur, ok := spans[name]
		if !ok {
			t.Fatalf("no %q span among %v", name, spans)
		}
		if us := int64(math.Round(phasesMS[phase] * 1000)); dur != us {
			t.Errorf("%q span lasts %dµs, attribution charges %s %dµs", name, dur, phase, us)
		}
	}
}

// daemonPhaseSpans maps traceCircuit on an in-process soimapd under a
// sampled traceparent and returns its phase spans and the job's
// attribution.
func daemonPhaseSpans(t *testing.T) (map[string]int64, *service.Attribution) {
	t.Helper()
	daemon := newDaemon(t)
	tc := obs.NewTraceContext()
	req, err := http.NewRequest(http.MethodPost, daemon+"/v1/map",
		strings.NewReader(`{"circuit": "`+traceCircuit+`", "algorithm": "soi"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	var v service.JobView
	getJSON(t, req, &v)
	if v.State != service.JobDone || v.TraceID != tc.TraceID || v.Attribution == nil {
		t.Fatalf("job %+v, want done under trace %s with an attribution", v, tc.TraceID)
	}
	req, err = http.NewRequest(http.MethodGet, daemon+"/v1/traces/"+tc.TraceID+"?raw=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.Span
	getJSON(t, req, &spans)
	return phaseSpans(t, spans), v.Attribution
}

func getJSON(t *testing.T, req *http.Request, v any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", req.Method, req.URL, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestTracedJobPhaseSpansMatchAttribution: a traced soimapd job's phase
// spans last exactly what its attribution charges each phase, to the µs.
func TestTracedJobPhaseSpansMatchAttribution(t *testing.T) {
	spans, a := daemonPhaseSpans(t)
	checkOneClock(t, spans, a.PhasesMS)
}

// attributionLine is one phase row of the -explain table.
var attributionLine = regexp.MustCompile(`(?m)^  phase (\S+)\s+([0-9.]+)ms`)

// TestCLITracePhaseSpansMatchDaemon: `soimap -trace` records each phase
// span off the same clock reads as its -explain attribution, and the
// same set of phase spans as a traced soimapd job of the same circuit.
func TestCLITracePhaseSpansMatchDaemon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := runCLI(t, "-circuit", traceCircuit, "-algo", "soi", "-trace", path, "-explain")
	if err != nil {
		t.Fatal(err)
	}
	phasesMS := map[string]float64{}
	for _, m := range attributionLine.FindAllStringSubmatch(out, -1) {
		ms, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		phasesMS[m[1]] = ms
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var events []obs.Span
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			events = append(events, obs.Span{Cat: e.Cat, Name: e.Name, DurUS: e.Dur})
		}
	}
	spans := phaseSpans(t, events)
	checkOneClock(t, spans, phasesMS)

	daemon, _ := daemonPhaseSpans(t)
	cli, served := sortedNames(spans), sortedNames(daemon)
	if !slices.Equal(cli, served) {
		t.Fatalf("soimap -trace phase spans %q, soimapd job %q: want the same set", cli, served)
	}
}

func sortedNames(spans map[string]int64) []string {
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
