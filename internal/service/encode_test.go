package service

import (
	"bytes"
	"context"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// mapSubmission runs src through the daemon's job pipeline (mapNetwork),
// keyed and strashed the way a submission is.
func mapSubmission(circuit string, src *logic.Network, algo report.Algorithm, opt mapper.Options) (*MapResult, error) {
	key, sr := cacheKey(src, algo.Key(), opt)
	j := &job{circuit: circuit, algo: algo, src: src, opt: opt, cacheKey: key, strashed: sr}
	return mapNetwork(context.Background(), j)
}

// TestCLIAndServiceEncodingsMatch pins the contract behind `soimap -json`:
// the CLI path (PrepareNetworkMode + ParseAlgorithm + Pipeline.Map +
// NewMapResult) and the daemon path (mapNetwork) must produce
// byte-identical JSON for the same submission, for every algorithm.
func TestCLIAndServiceEncodingsMatch(t *testing.T) {
	const circuit = "mux"
	opt := mapper.DefaultOptions()
	for _, key := range []string{"domino", "rs", "rsdeep", "soi"} {
		t.Run(key, func(t *testing.T) {
			// CLI path, as cmd/soimap -json composes it.
			ctx := context.Background()
			a, err := report.ParseAlgorithm(key)
			if err != nil {
				t.Fatal(err)
			}
			p, err := report.PrepareNetworkMode(ctx, builtin.MustBuild(circuit), opt.StrashOff)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Map(ctx, a, opt, false)
			if err != nil {
				t.Fatal(err)
			}
			cliBytes, err := EncodeJSON(NewMapResult(circuit, p, res))
			if err != nil {
				t.Fatal(err)
			}

			// Daemon path.
			daemon, err := mapSubmission(circuit, builtin.MustBuild(circuit), a, opt)
			if err != nil {
				t.Fatal(err)
			}
			daemonBytes, err := EncodeJSON(daemon)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(daemonBytes, cliBytes) {
				t.Errorf("CLI and daemon encodings differ:\nCLI:\n%s\ndaemon:\n%s", cliBytes, daemonBytes)
			}
		})
	}
}

func TestEncodeJSONDeterministic(t *testing.T) {
	r, err := mapSubmission("z4ml", builtin.MustBuild("z4ml"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("EncodeJSON is not deterministic")
	}
	if b1[len(b1)-1] != '\n' {
		t.Error("encoding lacks trailing newline")
	}
}

func TestMapResultContents(t *testing.T) {
	r, err := mapSubmission("mux", builtin.MustBuild("mux"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Circuit != "mux" || r.Algorithm != "SOI_Domino_Map" {
		t.Errorf("circuit/algorithm = %q/%q", r.Circuit, r.Algorithm)
	}
	if r.Stats.Gates != len(r.Gates) {
		t.Errorf("stats report %d gates but %d encoded", r.Stats.Gates, len(r.Gates))
	}
	if r.Stats.TTotal != r.Stats.TLogic+r.Stats.TDisch {
		t.Errorf("t_total %d != t_logic %d + t_disch %d", r.Stats.TTotal, r.Stats.TLogic, r.Stats.TDisch)
	}
	levels := 0
	disch := 0
	for _, g := range r.Gates {
		if g.Level > levels {
			levels = g.Level
		}
		disch += g.Discharges
	}
	if levels != r.Stats.Levels {
		t.Errorf("max gate level %d != stats levels %d", levels, r.Stats.Levels)
	}
	if disch != r.Stats.TDisch {
		t.Errorf("summed discharges %d != stats t_disch %d", disch, r.Stats.TDisch)
	}
}
