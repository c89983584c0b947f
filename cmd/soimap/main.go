// Command soimap maps one circuit to SOI domino logic and reports the
// paper's statistics (T_logic, T_disch, T_total, gate count, clock load,
// levels). Circuits come from the built-in benchmark suite, a BLIF file
// or an ISCAS-89 .bench file.
//
// Usage:
//
//	soimap -circuit c880 [-algo soi|rs|rsdeep|domino] [-objective area|depth]
//	       [-k 1] [-w 5] [-h 8] [-pareto] [-tuple-budget N] [-seq] [-compound]
//	       [-strash-off] [-json] [-verify] [-dump] [-netlist] [-spice out.sp]
//	       [-dot out.dot] [-stats] [-explain] [-trace out.json] [-trace-sample N]
//	soimap -blif path/to/circuit.blif
//	soimap -bench path/to/circuit.bench
//	soimap -server http://127.0.0.1:8347 [-server-timeout 5s] -circuit c880 ...
//	soimap -list
//	soimap -version
//
// The flags build one service.MapRequest, as soimapd accepts it: -blif
// and -bench read their file into its text (a .bench source is labelled
// "inline.bench"), and a zero -k, -w or -h selects the default. Locally
// the service's own ResolveSpec and ParseSource resolve it, so a bad
// flag fails with the daemon's 400 text before any output; -server posts
// it as is. With -json the output is the service's MapResult encoding,
// byte-identical in both modes to a soimapd job's result.
//
// With -stats the run's DP instrumentation (tuples generated/pruned/kept,
// combine calls by kind, discharge charges, phase timings) is printed
// after the mapping; -explain prints the cost attribution table (wall
// time per pipeline phase with its share, strash reduction, DP tuples) —
// against -server it is fetched from the daemon's
// GET /v1/jobs/{id}/explain instead; -trace writes the run as Chrome
// trace-event JSON, loadable at ui.perfetto.dev (see the Observability
// section of README.md). Against -server, -trace starts a sampled
// distributed trace and writes the fleet-stitched Perfetto JSON fetched
// from GET /v1/traces/{id}. The flags that act on the mapped circuit in
// this process (-verify, -compound, -dump, -netlist, -spice, -dot,
// -stats, -trace-sample) are refused with -server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soimap:", err)
		os.Exit(1)
	}
}

func run() error {
	def := mapper.DefaultOptions()
	circuit := flag.String("circuit", "", "built-in benchmark name (see -list)")
	blifPath := flag.String("blif", "", "map a circuit from a BLIF file instead")
	benchPath := flag.String("bench", "", "map a circuit from an ISCAS-89 .bench file instead")
	algo := flag.String("algo", "soi", "mapper: domino, rs, rsdeep or soi")
	objective := flag.String("objective", "area", "cost objective: area or depth")
	k := flag.Int("k", def.ClockWeight, "clock-transistor weight (paper table III; 0 = default)")
	maxW := flag.Int("w", def.MaxWidth, "maximum pulldown width (0 = default)")
	maxH := flag.Int("h", def.MaxHeight, "maximum pulldown height (0 = default)")
	pareto := flag.Bool("pareto", false, "enable the Pareto-frontier DP extension (soi only; domino, rs and rsdeep ignore it)")
	tupleBudget := flag.Int("tuple-budget", 0, "Pareto tuple budget; overflow degrades to the paper's heuristic (0 = unlimited; ignored without -pareto)")
	compound := flag.Bool("compound", false, "apply the compound-domino post-pass (paper solution 7)")
	seqAware := flag.Bool("seq", false, "prune provably-unexcitable discharge points (paper §VII)")
	strashOff := flag.Bool("strash-off", false, "skip the structural-hashing + DCE front-end (see the Canonicalization section of README.md)")
	doVerify := flag.Bool("verify", false, "check functional equivalence against the source")
	dump := flag.Bool("dump", false, "print the mapped gates")
	devices := flag.Bool("netlist", false, "print the transistor-level netlist")
	spicePath := flag.String("spice", "", "write the transistor-level SPICE deck to this file")
	dotPath := flag.String("dot", "", "write a Graphviz view of the mapping to this file")
	jsonOut := flag.Bool("json", false, "print the result as the mapping service's JSON encoding")
	list := flag.Bool("list", false, "list built-in benchmarks")
	statsOut := flag.Bool("stats", false, "print the run's DP instrumentation (to stderr with -json)")
	explain := flag.Bool("explain", false, "print the run's cost attribution table (per-phase wall time, strash reduction, DP tuples); with -server, fetched from the daemon")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	traceSample := flag.Int("trace-sample", 1, "record every Nth per-node DP trace event")
	version := flag.Bool("version", false, "print build information and exit")
	server := flag.String("server", "", "map remotely via a soimapd at this base URL (e.g. http://127.0.0.1:8347)")
	timeout := flag.Duration("server-timeout", 0, "remote job deadline (0 = server default)")
	flag.Parse()

	if *version {
		fmt.Println(obs.Build())
		return nil
	}
	if *list {
		return writeBenchmarkList(os.Stdout)
	}

	req := &service.MapRequest{
		Circuit:   *circuit,
		Algorithm: *algo,
		Options: &service.RequestOptions{
			MaxWidth:      *maxW,
			MaxHeight:     *maxH,
			Objective:     *objective,
			ClockWeight:   *k,
			Pareto:        *pareto,
			TupleBudget:   *tupleBudget,
			SequenceAware: *seqAware,
			StrashOff:     *strashOff,
		},
		TimeoutMS: timeout.Milliseconds(),
	}
	var err error
	if req.BLIF, err = readSource(*blifPath); err != nil {
		return err
	}
	if req.Bench, err = readSource(*benchPath); err != nil {
		return err
	}
	if *server != "" {
		if name := localOnlyFlag(); name != "" {
			return fmt.Errorf("-%s acts on a local mapping; it cannot be used with -server", name)
		}
		return runRemote(*server, req, *jsonOut, *explain, *tracePath)
	}

	// Resolve as soimapd does: the algorithm and options first, then the
	// source, so every error is the daemon's 400 text and precedes any
	// output.
	a, opt, err := service.ResolveSpec(req)
	if err != nil {
		return err
	}
	src, label, err := service.ParseSource(context.Background(), req)
	if err != nil {
		return err
	}

	// Observability opt-ins: a per-run stats collector and/or a span
	// recorder ride through the context into the pipeline and the DP.
	// -trace records the run as soimapd records a sampled job: into a
	// trace hub (here a one-trace one) under a fresh root trace context.
	ctx := context.Background()
	var st *obs.Stats
	if *statsOut || *explain {
		st = &obs.Stats{}
		ctx = obs.WithStats(ctx, st)
	}
	var hub *obs.TraceHub
	var tc obs.TraceContext
	if *tracePath != "" {
		hub, tc = obs.NewTraceHub("soimap", 1), obs.NewTraceContext()
		hub.SampleNodes(*traceSample)
		ctx = obs.WithTraceContext(obs.WithTraceHub(ctx, hub), tc)
	}

	wallStart := time.Now()
	p, err := report.PrepareNetworkMode(ctx, src, opt.StrashOff)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Printf("source: %s\n", src)
		if p.Strash != nil {
			c := p.Strash.Counters
			fmt.Printf("strash: %d -> %d nodes (%d merged, %d folded, %d dead removed)\n",
				c.NodesIn, c.NodesOut, c.Merged, c.Folded, c.Dead)
		}
		fmt.Printf("unate:  %s (%d duplicated gates)\n", p.Unate, p.Duplicated)
	}

	res, err := p.Map(ctx, a, opt, false)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)
	if !*jsonOut {
		fmt.Printf("%s: %s\n", res.Algorithm, res.Stats)
	}
	if *compound {
		cs := mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
		if err := res.Audit(); err != nil {
			return fmt.Errorf("compound audit: %w", err)
		}
		if !*jsonOut {
			fmt.Printf("compound: %d gates converted, %d transistors saved -> %s\n",
				cs.Converted, cs.Saved, res.Stats)
		}
	}
	if *jsonOut {
		b, err := service.EncodeJSON(service.NewMapResult(label, p, res))
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	}
	// With -json the stats and the attribution table go to stderr so
	// stdout stays byte-identical to the daemon's result encoding.
	info := io.Writer(os.Stdout)
	if *jsonOut {
		info = os.Stderr
	}
	if *statsOut {
		fmt.Fprintln(info, st)
	}
	if *explain {
		// The same attribution record a replica attaches to a job, built
		// from this process's run: a local mapping is always a cache miss.
		a := service.NewAttribution("", "", service.TierMiss, 0, wall, st)
		fmt.Fprintln(info, a.Table())
	}
	if hub != nil {
		spans := hub.Spans(tc.TraceID)
		if err := createFile(*tracePath, func(w io.Writer) error { return obs.WriteSpans(w, spans) }); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("trace written to %s (%d spans); load it at ui.perfetto.dev\n",
				*tracePath, len(spans))
		}
	}

	if *doVerify {
		rep, err := verify.Equivalent(src, res, verify.DefaultOptions())
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("NOT equivalent: %s", rep.Mismatches[0])
		}
		if !*jsonOut {
			mode := "randomized+corners"
			if rep.Exhaustive {
				mode = "exhaustive"
			}
			fmt.Printf("verified equivalent (%s, %d vectors)\n", mode, rep.Vectors)
		}
	}
	if *dump {
		fmt.Print(res.Dump())
	}
	if *dotPath != "" {
		if err := createFile(*dotPath, res.WriteDot); err != nil {
			return err
		}
		fmt.Printf("Graphviz view written to %s\n", *dotPath)
	}
	if *devices || *spicePath != "" {
		c, err := netlist.Build(res)
		if err != nil {
			return err
		}
		if err := c.Audit(); err != nil {
			return fmt.Errorf("netlist audit: %w", err)
		}
		if *devices {
			fmt.Print(c.Dump())
		}
		if *spicePath != "" {
			if err := createFile(*spicePath, func(w io.Writer) error { return c.WriteSpice(w, netlist.DefaultSpiceOptions()) }); err != nil {
				return err
			}
			fmt.Printf("SPICE deck written to %s (%d devices)\n", *spicePath, len(c.Devices))
		}
	}
	return nil
}

// writeBenchmarkList prints the built-in suite sorted by name with
// aligned columns. Golden-tested; keep the format stable.
func writeBenchmarkList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tKIND\tDESCRIPTION")
	for _, name := range bench.Names() { // Names is already sorted
		b, _ := bench.Get(name)
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, b.Kind, b.Description)
	}
	return tw.Flush()
}

// createFile creates the file at path and fills it with write.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSource returns the text of the file at path, or "" when path is
// empty (the flag was not given).
func readSource(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// localOnlyFlag names the first flag set on the command line that acts
// on a mapping in this process, or returns "" when none is.
func localOnlyFlag() string {
	var name string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "verify", "compound", "dump", "netlist", "spice", "dot", "stats", "trace-sample":
			if name == "" {
				name = f.Name
			}
		}
	})
	return name
}
