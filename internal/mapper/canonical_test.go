package mapper

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
)

// TestCanonicalOptionsProperty draws random (mapper, options) pairs and
// maps each twice: on the engine with the raw options, bypassing the
// canonical rule, and through the public entry point, which runs the
// canonical options. The results and the DP's counters must be
// identical, options echo aside, so a canonical rule that reset a field
// the engine reads fails here. RS_Map and RS_Map_deep are drawn as what
// they run, the Domino_Map DP with their stack order in the discharge
// pass, and each echo must be Canonical under the mapper's own name.
//
// The draws skip one deliberate difference: a PBE-blind mapper drops
// Pareto. A tuple budget is drawn only with Pareto, the one mode whose
// engine reads it (canonical clears it otherwise, which
// TestTupleBudgetIgnoredOutsidePareto pins).
func TestCanonicalOptionsProperty(t *testing.T) {
	nets := []*logic.Network{
		unateBench(t, "mux"),
		unateBench(t, "z4ml"),
		unateBench(t, "frg1"), // its SOI mapping depends on ClockWeight
		randomUnateNetwork(7, 6, 40),
	}
	type mapperUnderTest struct {
		cfg     config
		reorder stackOrder
	}
	rs := func(deep bool) mapperUnderTest {
		cfg := dominoMap
		cfg.algorithm = rsName(deep)
		return mapperUnderTest{cfg, rsOrder(deep)}
	}
	mappers := []mapperUnderTest{{dominoMap, nil}, rs(false), rs(true), {soiMap, nil}}
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for draw := 0; draw < 200; draw++ {
		mut := mappers[rng.Intn(len(mappers))]
		m := mut.cfg
		n := nets[rng.Intn(len(nets))]
		raw := Options{
			MaxWidth:           3 + rng.Intn(3),
			MaxHeight:          3 + rng.Intn(6),
			Objective:          Objective(rng.Intn(2)),
			ClockWeight:        1 + rng.Intn(3),
			DepthWeight:        1 + rng.Intn(10),
			AlwaysFooted:       rng.Intn(4) == 0,
			BaselineStackOrder: StackOrder(rng.Intn(2)),
			Pareto:             rng.Intn(2) == 0,
			Workers:            rng.Intn(5),
			StrashOff:          rng.Intn(4) == 0,
			SequenceAware:      rng.Intn(4) == 0,
		}
		if raw.Pareto && rng.Intn(2) == 0 {
			raw.TupleBudget = []int{8, 200, 1 << 20}[rng.Intn(3)]
		}
		if raw.Pareto && !m.pbeAware {
			continue // the PBE-blind Pareto mode is dropped on purpose
		}
		name := fmt.Sprintf("draw %d: %s on %s, %+v", draw, m.algorithm, n.Name, raw)
		want, wantStats := mapStats(t, n, func(ctx context.Context) (*Result, error) {
			return m.with(raw).run(ctx, n, mut.reorder)
		})
		got, gotStats := mapStats(t, n, func(ctx context.Context) (*Result, error) {
			return run(ctx, n, m, raw, mut.reorder)
		})
		if want := Canonical(m.algorithm, raw); got.Options != want {
			t.Fatalf("%s: echo %+v, want the canonical %+v", name, got.Options, want)
		}
		got.Options = want.Options
		if got.Dump() != want.Dump() || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: canonical options map differently:\nraw:\n%s\ncanonical:\n%s", name, want.Dump(), got.Dump())
		}
		if gotStats != wantStats {
			t.Fatalf("%s: DP counters differ:\n  raw:       %+v\n  canonical: %+v", name, wantStats, gotStats)
		}
		compared++
	}
	if compared < 100 {
		t.Fatalf("only %d of 200 draws compared", compared)
	}
}

// mapStats runs f with a stats collector and returns the result and the
// DP's counters, phase times cleared.
func mapStats(t *testing.T, n *logic.Network, f func(context.Context) (*Result, error)) (*Result, obs.Stats) {
	t.Helper()
	var st obs.Stats
	res, err := f(obs.WithStats(context.Background(), &st))
	if err != nil {
		t.Fatalf("%s: %v", n.Name, err)
	}
	st.Phases = obs.PhaseTimes{}
	return res, st
}
