// Command soimap maps one circuit to SOI domino logic and reports the
// paper's statistics (T_logic, T_disch, T_total, gate count, clock load,
// levels). Circuits come from the built-in benchmark suite or from a BLIF
// file.
//
// Usage:
//
//	soimap -circuit c880 [-algo soi|rs|rsdeep|domino] [-objective area|depth]
//	       [-k 1] [-w 5] [-h 8] [-pareto] [-seq] [-compound] [-strash-off] [-json]
//	       [-verify] [-dump] [-netlist] [-spice out.sp] [-dot out.dot]
//	       [-stats] [-explain] [-trace out.json] [-trace-sample N]
//	soimap -blif path/to/circuit.blif
//	soimap -bench path/to/circuit.bench
//	soimap -list
//	soimap -version
//
// With -json the mapping is printed as the service's MapResult encoding
// (internal/service): for the same circuit, algorithm and options the
// output is byte-identical to what soimapd returns in a job's result.
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
// from GET /v1/traces/{id}.
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
	"soidomino/internal/benchfmt"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
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
	circuit := flag.String("circuit", "", "built-in benchmark name (see -list)")
	blifPath := flag.String("blif", "", "map a circuit from a BLIF file instead")
	benchPath := flag.String("bench", "", "map a circuit from an ISCAS-89 .bench file instead")
	algo := flag.String("algo", "soi", "mapper: domino, rs, rsdeep or soi")
	objective := flag.String("objective", "area", "cost objective: area or depth")
	k := flag.Int("k", 1, "clock-transistor weight (paper table III)")
	maxW := flag.Int("w", 5, "maximum pulldown width")
	maxH := flag.Int("h", 8, "maximum pulldown height")
	pareto := flag.Bool("pareto", false, "enable the Pareto-frontier DP extension (soi only)")
	tupleBudget := flag.Int("tuple-budget", 0, "Pareto tuple budget; overflow degrades to the paper's heuristic (0 = unlimited)")
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
	a, err := report.ParseAlgorithm(*algo)
	if err != nil {
		return err
	}
	if *server != "" {
		return runRemote(*server, *timeout, remoteFlags{
			circuit: *circuit, blifPath: *blifPath, benchPath: *benchPath,
			algo: *algo, objective: *objective, k: *k, maxW: *maxW, maxH: *maxH,
			pareto: *pareto, tupleBudget: *tupleBudget, seqAware: *seqAware,
			strashOff: *strashOff, jsonOut: *jsonOut,
			explain: *explain, tracePath: *tracePath,
		})
	}

	var src *logic.Network
	switch {
	case *blifPath != "":
		f, err := os.Open(*blifPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err = blif.Parse(f)
		if err != nil {
			return err
		}
	case *benchPath != "":
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err = benchfmt.Parse(*benchPath, f)
		if err != nil {
			return err
		}
	case *circuit != "":
		b, ok := bench.Get(*circuit)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", *circuit)
		}
		src = b.Build()
	default:
		return fmt.Errorf("one of -circuit, -blif or -bench is required")
	}

	opt := mapper.DefaultOptions()
	opt.MaxWidth = *maxW
	opt.MaxHeight = *maxH
	opt.ClockWeight = *k
	opt.Pareto = *pareto
	opt.TupleBudget = *tupleBudget
	opt.SequenceAware = *seqAware
	opt.StrashOff = *strashOff
	switch *objective {
	case "area":
	case "depth":
		opt.Objective = mapper.Depth
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}

	label := src.Name
	if *circuit != "" {
		label = *circuit
	}

	// Observability opt-ins: a per-run stats collector and/or a span
	// tracer ride through the context into the pipeline and the DP.
	ctx := context.Background()
	var st *obs.Stats
	if *statsOut || *explain {
		st = &obs.Stats{}
		ctx = obs.WithStats(ctx, st)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(*traceSample)
		ctx = obs.WithTracer(ctx, tracer)
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
		cs, err := mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
		if err != nil {
			return err
		}
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
	if st != nil && *statsOut {
		// With -json the stats go to stderr so stdout stays byte-identical
		// to the daemon's result encoding.
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out, st)
	}
	if *explain {
		// The same attribution record a replica attaches to a job, built
		// from this process's run: a local mapping is always a cache miss.
		a := service.NewAttribution("", "", service.TierMiss, 0, wall, st)
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out, a.Table())
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteSpans(f, tracer.Spans()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("trace written to %s (%d spans); load it at ui.perfetto.dev\n",
				*tracePath, tracer.Len())
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
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := res.WriteDot(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
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
			f, err := os.Create(*spicePath)
			if err != nil {
				return err
			}
			if err := c.WriteSpice(f, netlist.DefaultSpiceOptions()); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
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
