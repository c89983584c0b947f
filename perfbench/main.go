// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the mapper (in process) or against an
// in-process soirouter + soimapd fleet over loopback HTTP, checks every
// output, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"), timed in wall time rescaled by a reference computation
// (clock.go); with -trace 1 the run adds a traced window, writes its span
// file and a layer-budget table, and reports the per-layer metrics.
// STEADINESS.md describes the workloads and metrics. run.sh builds the
// command from the checkout and passes the flags through:
//
//	bash perfbench/run.sh --workload fleet-hit --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow boot does not move it.
const setupRounds = 5

// gcEvery is how many bytes the ops of a window may allocate between two
// collections.
const gcEvery = 64 << 20

// outDir holds everything a run writes (span files, state dirs), under
// the checkout's build directory.
const outDir = ".bench_build/perfbench"

// env is one set-up instance of a workload, ready to run timed windows.
// Each window is a closed loop of one client: the next op starts when
// the previous one has returned, and its wall time includes any wait for
// work the previous op left behind (a replica's write-behind).
type env interface {
	// ops is the number of ops in each window.
	ops() int
	// opClass names op i's latency class (its input circuit).
	opClass(i int) string
	// op runs op i of window w; rec is nil when untraced.
	op(ctx context.Context, w, i int, rec *recorder) error
	// check verifies every output of windows [0, windows) outside the
	// timed windows and returns the distinct results' transistor sums.
	check(windows int) (quality, error)
	// layers adds the per-layer metrics of traced window w.
	layers(w int, rows []layerRow, m map[string]float64) error
	close()
}

type workload struct {
	name, why string
	// setup builds the inputs for the given number of windows and
	// everything else a window needs; seconds sizes a window.
	setup func(seed int64, seconds, windows int) (env, error)
}

var workloads = []workload{
	{"paper-tables", "the paper's own traffic: all 33 registry circuits through the three mappers in process; front-end, single-tuple DP and encode share the time", setupPaperTables},
	{"pareto-large", "Pareto SOI mapping of the six largest circuits; the DP dominates and allocates most", setupParetoLarge},
	{"fleet-hit", "router + 2 replicas over loopback; every op is an LRU hit, so the DP never runs and the router hop, parse, key and encode show", setupFleetHit},
	{"fleet-miss", "same fleet with persistence on; every op is a distinct synthetic network that misses LRU, store and peer, then maps and is written behind", setupFleetMiss},
}

// quality is the paper's measure of a mapping, summed over a workload's
// distinct results.
type quality struct{ TTotal, TDisch int }

// window is the outcome of one timed window.
type window struct {
	lat      []time.Duration // wall time per op
	gc       time.Duration   // wall time of the collections run between ops
	ref      refSample       // means of the reference samples
	failed   int
	wall     time.Duration
	cpuTotal time.Duration // process CPU time of the ops and collections
	steal    float64       // CPU seconds the hypervisor took from this machine
	alloc    uint64        // process-wide bytes allocated
	gcPause  time.Duration
	firstErr error
}

func runWindow(ctx context.Context, e env, w int, rec *recorder, ref *reference) window {
	n := e.ops()
	res := window{lat: make([]time.Duration, n)}
	var refWall, refCPU []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stealSeconds()
	start := time.Now()
	// The collector runs only between ops, once gcEvery bytes have been
	// allocated since the last cycle: a cycle's cost otherwise lands on
	// whichever op triggers it, and the few ops that pay for one decide
	// the tail. Its wall time still counts in ops_per_s.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lastGC := allocBytes()
	for i := 0; i < n; i++ {
		if i%refEvery == 0 {
			s := ref.sample()
			refWall = append(refWall, float64(s.wall))
			refCPU = append(refCPU, float64(s.cpu))
		}
		c0 := cpuTime()
		if a := allocBytes(); a-lastGC > gcEvery {
			g0 := time.Now()
			runtime.GC()
			res.gc += time.Since(g0)
			lastGC = a
		}
		t0 := time.Now()
		err := e.op(ctx, w, i, rec)
		t1 := time.Now()
		res.cpuTotal += cpuTime() - c0
		res.lat[i] = t1.Sub(t0)
		rec.add(traceID(w, i), "op", t0, t1)
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	res.wall = time.Since(start)
	res.steal = stealSeconds() - steal0
	res.ref = refSample{time.Duration(meanOf(refWall)), time.Duration(meanOf(refCPU))}
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return res
}

// busy is the window's wall time spent in ops and in the collections
// between them, rescaled to the nominal machine: ops_per_s divides the
// op count by it.
func (w window) busy() time.Duration {
	var sum time.Duration
	for _, d := range w.lat {
		sum += d
	}
	return scale([]time.Duration{sum + w.gc}, w.ref.wall)[0]
}

// traceID names op i of window w; it doubles as the HTTP request id, so
// it sticks to the characters request ids allow.
func traceID(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }

// endToEnd lists the end-to-end metrics with their units, in the order
// BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"ok_frac", "frac"},
	{"t_total", "count"},
	{"t_disch", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-tables, pareto-large, fleet-hit or fleet-miss")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs and op order")
	seconds := flag.Int("seconds", 10, "sizes the fixed op count of a timed window")
	trace := flag.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(wl workload, seed int64, seconds int, traced bool) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	windows := 1
	if traced {
		windows = 2
	}
	ref := newReference()
	defer ref.close()
	// Set up setupRounds times, each timed in wall time and rescaled by
	// the reference sampled right after it; the last instance runs the
	// windows.
	var e env
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		runtime.GC()
		t0 := time.Now()
		ne, err := wl.setup(seed, seconds, windows)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		d := time.Since(t0)
		var rs []float64
		for k := 0; k < 4; k++ {
			rs = append(rs, float64(ref.sample().wall))
		}
		setups = append(setups, scale([]time.Duration{d}, time.Duration(meanOf(rs)))[0].Seconds())
		if e != nil {
			e.close()
		}
		e = ne
	}
	defer e.close()
	fmt.Printf("workload %s seed %d: %d ops/window; %s\n", wl.name, seed, e.ops(), wl.why)

	ctx := context.Background()
	plain := runWindow(ctx, e, 0, nil, ref)
	wins := []window{plain}
	var rec *recorder
	if traced {
		rec = newRecorder()
		wins = append(wins, runWindow(ctx, e, 1, rec, ref))
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range wins {
		res.Attempted += len(w.lat)
		res.Failed += w.failed
		if w.firstErr != nil {
			fmt.Printf("FAIL: %d op(s) failed; first: %v\n", w.failed, w.firstErr)
			res.Correct = false
		}
	}
	t0 := time.Now()
	q, err := e.check(windows)
	if err != nil {
		fmt.Println("CHECK FAILED:", err)
		res.Correct = false
	} else {
		fmt.Printf("checks passed in %.2f s: distinct results T_total=%d T_disch=%d\n", time.Since(t0).Seconds(), q.TTotal, q.TDisch)
	}

	n := float64(len(plain.lat))
	norm := scale(plain.lat, plain.ref.wall)
	sum, err := summarize(norm)
	if err != nil {
		return nil, err
	}
	perS := n / plain.busy().Seconds()
	wallSum, _ := summarize(plain.lat)
	var plainLat time.Duration
	for _, d := range plain.lat {
		plainLat += d
	}
	fmt.Printf("setup %v nominal s (median of %d)\n", fmtList(setups), setupRounds)
	printClasses(e, norm)
	fmt.Printf("window: %d ops, reference %.3f ms wall, %.3f ms CPU (nominal %v); %.2f ops per nominal s; p50 %.3f ms; tail p%.2f = %.3f ms (%d samples beyond, n=%d); fail_frac %.4f\n",
		len(plain.lat), msOf(plain.ref.wall), msOf(plain.ref.cpu), refNominal, perS, sum.P50, sum.TailP, sum.Tail, sum.Beyond, sum.N, float64(plain.failed)/n)
	fmt.Printf("as measured: %.3f s wall in ops + %.3f s in collections = %.2f ops/s, p50 %.3f ms, tail %.3f ms; %.3f CPU s = %.2f ops/CPU s; host steal %.2f CPU s\n",
		plainLat.Seconds(), plain.gc.Seconds(), n/(plainLat+plain.gc).Seconds(), wallSum.P50, wallSum.Tail, plain.cpuTotal.Seconds(), n/plain.cpuTotal.Seconds(), plain.steal)

	if !traced {
		v := map[string]float64{
			"setup_s":         medianOf(setups),
			"ops_per_s":       perS,
			"p50_ms":          sum.P50,
			"tail_ms":         sum.Tail,
			"alloc_mb_per_op": float64(plain.alloc) / n / 1e6,
			"ok_frac":         1 - float64(plain.failed)/n,
			"t_total":         float64(q.TTotal),
			"t_disch":         float64(q.TDisch),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
		return res, nil
	}

	tw := wins[1]
	spans := rec.snapshot()
	rows := budget(spans)
	tn := float64(len(tw.lat))
	tracedPerS := tn / tw.busy().Seconds()
	fmt.Printf("traced window: %d ops, %.2f ops per nominal s, %.3f s wall; %d spans\n", len(tw.lat), tracedPerS, tw.wall.Seconds(), len(spans))
	fmt.Println("layer budget (traced window, wall self time per op):")
	selfSum := printBudget(os.Stdout, rows, len(tw.lat))
	untracedOp := msOf(plainLat) / n
	fmt.Printf("  untraced mean op wall %.4f ms; traced sum of self times %.4f ms/op; difference %.4f ms/op\n",
		untracedOp, msOf(selfSum)/tn, msOf(selfSum)/tn-untracedOp)
	fmt.Printf("  tracing overhead: %.2f ops per nominal s untraced - %.2f traced = %.2f\n", perS, tracedPerS, perS-tracedPerS)

	lm := map[string]float64{}
	for _, l := range perLayer {
		lm[l.Name] = 0
	}
	lm["runtime.gc_pause_ms"] = msOf(tw.gcPause) / tn
	lm["trace.overhead_ops_per_s"] = perS - tracedPerS
	lm["trace.overhead_frac"] = (perS - tracedPerS) / perS
	lm["trace.self_sum_ms"] = msOf(selfSum) / tn
	lm["trace.untraced_op_ms"] = untracedOp
	lm["wall.ops_per_s"] = n / (plainLat + plain.gc).Seconds()
	lm["wall.p50_ms"] = wallSum.P50
	lm["wall.tail_ms"] = wallSum.Tail
	lm["cpu.ops_per_s"] = n / plain.cpuTotal.Seconds()
	lm["host.ref_ms"] = msOf(plain.ref.wall)
	lm["host.ref_cpu_ms"] = msOf(plain.ref.cpu)
	lm["host.steal_frac"] = plain.steal / (plain.wall.Seconds() * float64(runtime.NumCPU()))
	if err := e.layers(1, rows, lm); err != nil {
		return nil, fmt.Errorf("%s layers: %w", wl.name, err)
	}
	printLayerMap(wl.name, lm)
	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
	meta := map[string]any{"workload": wl.name, "seed": seed, "ops": len(tw.lat), "layer_map": perLayer}
	if err := writeSpans(spanPath, spans, meta); err != nil {
		return nil, err
	}
	fmt.Printf("span file: %s (%d spans)\n", spanPath, len(spans))
	for _, l := range perLayer {
		res.Metrics[l.Name] = metric{lm[l.Name], l.Unit}
	}
	return res, nil
}

func fmtList(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// printLayerMap prints every per-layer metric next to the end-to-end
// metrics it should move and the workloads where it should show.
func printLayerMap(workload string, lm map[string]float64) {
	fmt.Println("per-layer metrics -> end-to-end metric they should move (workloads):")
	for _, l := range perLayer {
		mark := " "
		if strings.Contains(l.Workloads, workload) {
			mark = "*"
		}
		fmt.Printf(" %s %-28s %14.4f %-6s -> %s (%s)\n", mark, l.Name, lm[l.Name], l.Unit, l.Moves, l.Workloads)
	}
}

// printClasses prints each op class's median latency and names the
// classes the p50 and tail samples fall in: each should sit inside one
// class, away from a boundary between two.
func printClasses(e env, lat []time.Duration) {
	order := make([]int, len(lat))
	byClass := map[string][]float64{}
	for i := range order {
		order[i] = i
		c := e.opClass(i)
		byClass[c] = append(byClass[c], msOf(lat[i]))
	}
	sort.Slice(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Slice(names, func(a, b int) bool { return medianOf(byClass[names[a]]) < medianOf(byClass[names[b]]) })
	fmt.Println("op classes (median ms x count):")
	for _, c := range names {
		fmt.Printf("  %-10s %9.3f x %d\n", c, medianOf(byClass[c]), len(byClass[c]))
	}
	n := len(order)
	fmt.Printf("p50 samples fall in class %s/%s; tail sample in class %s\n",
		e.opClass(order[(n-1)/2]), e.opClass(order[n/2]), e.opClass(order[n-tailBeyond-1]))
}

// forEach runs f(0..n-1) on GOMAXPROCS goroutines and returns the error
// of the lowest failing index.
func forEach(n int, f func(k int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				errs[k] = f(k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
