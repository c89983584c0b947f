package soidomino

import (
	"context"
	"reflect"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// TestRearrangeMatchesRSMap holds the paper's definition of RS_Map
// (Domino_Map followed by Rearrange_Stacks) to the mappers: for every
// registry circuit under every mapping-golden option set, an RS_Map or
// RS_Map_deep result derived from the Domino_Map result
// (mapper.Rearrange) must encode byte-identically to the direct run
// (RSMapContext, RSMapDeepContext) and equal it field for field, spans
// and discharge points included (the encoding carries only their
// counts), and the direct run's DP counters must be the Domino_Map
// run's. The Domino_Map result must encode and dump as before the
// derivations.
func TestRearrangeMatchesRSMap(t *testing.T) {
	pipes := preparedPipelines(t)
	direct := map[bool]func(context.Context, *logic.Network, mapper.Options) (*mapper.Result, error){
		false: mapper.RSMapContext,
		true:  mapper.RSMapDeepContext,
	}
	for _, name := range bench.Names() {
		p := pipes[name]
		encode := func(res *mapper.Result) string {
			t.Helper()
			enc, err := service.EncodeJSON(service.NewMapResult(name, p, res))
			if err != nil {
				t.Fatal(err)
			}
			return string(enc)
		}
		for _, v := range mappingVariants {
			opt := mapper.DefaultOptions()
			v.opt(&opt)
			var domStats obs.Stats
			dom, err := mapper.DominoMapContext(obs.WithStats(context.Background(), &domStats), p.Unate, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", name, v.name, err)
			}
			domEnc, domDump := encode(dom), dom.Dump()
			for _, deep := range []bool{false, true} {
				var st obs.Stats
				want, err := direct[deep](obs.WithStats(context.Background(), &st), p.Unate, opt)
				if err != nil {
					t.Fatalf("%s %s: %v", name, v.name, err)
				}
				got, err := mapper.Rearrange(dom, deep)
				if err != nil {
					t.Fatalf("%s %s: %v", name, v.name, err)
				}
				if encode(got) != encode(want) {
					t.Fatalf("%s %s: derived %s encodes differently from the direct run", name, v.name, want.Algorithm)
				}
				if got.Dump() != want.Dump() || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: derived %s differs from the direct run:\n%s\nvs\n%s", name, v.name, want.Algorithm, got.Dump(), want.Dump())
				}
				if st.Algorithm != want.Algorithm {
					t.Errorf("%s %s: direct run's stats say %q, want %q", name, v.name, st.Algorithm, want.Algorithm)
				}
				st.Algorithm, st.Phases = domStats.Algorithm, domStats.Phases
				if st != domStats {
					t.Fatalf("%s %s: %s DP counters %+v, Domino_Map's %+v", name, v.name, want.Algorithm, st, domStats)
				}
			}
			if encode(dom) != domEnc || dom.Dump() != domDump {
				t.Fatalf("%s %s: Rearrange changed its Domino_Map input", name, v.name)
			}
		}
	}
}

// TestTableIDerivesRS pins Table I's RS rows, which the harness derives
// from the Domino mapping, to what a direct RS_Map run through
// Pipeline.Map gives under the harness's hashed stack order.
func TestTableIDerivesRS(t *testing.T) {
	circuits := []string{"cm150", "mux", "z4ml"}
	tab, err := report.RunTableIOn(circuits, mapper.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.DefaultOptions()
	opt.BaselineStackOrder = mapper.OrderHashed
	if len(tab.Rows) != len(circuits) {
		t.Fatalf("Table I has %d rows for %d circuits", len(tab.Rows), len(circuits))
	}
	for _, row := range tab.Rows {
		p, err := report.Prepare(row.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Map(context.Background(), report.RS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if row.Cmp != res.Stats {
			t.Errorf("%s: Table I's RS row %v, a direct RS_Map run %v", row.Circuit, row.Cmp, res.Stats)
		}
	}
}
