package mapper

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
)

// randomUnateNetwork builds a seeded random 2-input AND/OR DAG large
// enough to exercise Pareto frontiers (inputs only, no inverters: the
// network is trivially unate).
func randomUnateNetwork(seed int64, inputs, gates int) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	n := logic.New("rand")
	ids := make([]int, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		ids = append(ids, n.AddInput(string(rune('a'+i%26))+strings.Repeat("x", i/26)))
	}
	for i := 0; i < gates; i++ {
		op := logic.And
		if rng.Intn(2) == 0 {
			op = logic.Or
		}
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		for b == a {
			b = ids[rng.Intn(len(ids))]
		}
		ids = append(ids, n.AddGate(op, a, b))
	}
	n.AddOutput("f", ids[len(ids)-1])
	return n
}

// TestTupleBudgetDegradesGracefully: a Pareto run whose budget overflows
// must finish with a valid, audit-clean, functionally-equivalent mapping
// flagged Degraded — never fail or silently differ in correctness.
func TestTupleBudgetDegradesGracefully(t *testing.T) {
	n := randomUnateNetwork(7, 6, 40)

	full := DefaultOptions()
	full.Pareto = true
	ref, err := SOIDominoMap(n, full)
	if err != nil {
		t.Fatalf("unbudgeted pareto run failed: %v", err)
	}
	if ref.Degraded {
		t.Fatal("unbudgeted run claims to be degraded")
	}

	tight := full
	tight.TupleBudget = 4
	res, err := SOIDominoMap(n, tight)
	if err != nil {
		t.Fatalf("budgeted run failed instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("budget 4 over a 40-gate network did not trip degradation")
	}
	if err := res.Audit(); err != nil {
		t.Fatalf("degraded result fails audit: %v", err)
	}
	// The degraded mapping must still compute the same function.
	rng := rand.New(rand.NewSource(99))
	inputs := make([]string, 0, len(n.Inputs))
	for _, id := range n.Inputs {
		inputs = append(inputs, n.Nodes[id].Name)
	}
	for trial := 0; trial < 64; trial++ {
		vec := make(map[string]bool, len(inputs))
		for _, name := range inputs {
			vec[name] = rng.Intn(2) == 1
		}
		want, err := ref.Eval(vec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Eval(vec)
		if err != nil {
			t.Fatal(err)
		}
		for out, w := range want {
			if got[out] != w {
				t.Fatalf("degraded mapping diverges on output %q (vec %v)", out, vec)
			}
		}
	}
	// The degraded run must not beat the unbudgeted frontier: equal or
	// worse total cost is the expected price of trimming.
	if res.Stats.TTotal < ref.Stats.TTotal {
		t.Errorf("degraded TTotal %d beats unbudgeted %d", res.Stats.TTotal, ref.Stats.TTotal)
	}
	// A generous budget must not degrade.
	loose := full
	loose.TupleBudget = 1 << 20
	if res, err := SOIDominoMap(n, loose); err != nil || res.Degraded {
		t.Errorf("generous budget degraded (err=%v)", err)
	}
}

func TestTupleBudgetIgnoredOutsidePareto(t *testing.T) {
	n := fig3Network()
	opt := fig3Options()
	opt.TupleBudget = 1
	res, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("non-Pareto run reports degradation")
	}
}

func TestNegativeTupleBudgetRejected(t *testing.T) {
	opt := DefaultOptions()
	opt.TupleBudget = -1
	if _, err := SOIDominoMap(fig3Network(), opt); err == nil {
		t.Fatal("negative TupleBudget accepted")
	}
}

// TestFaultPointsAbortRun: error faults at the DP and traceback points
// surface as run errors naming the point, and a clean context is
// untouched by a registry armed elsewhere.
func TestFaultPointsAbortRun(t *testing.T) {
	n := fig3Network()
	for _, point := range []string{PointCombine, PointTraceback} {
		reg := faultpoint.New(1)
		reg.Arm(point, faultpoint.Fault{Kind: faultpoint.Error, Prob: 1})
		ctx := faultpoint.With(context.Background(), reg)
		_, err := SOIDominoMapContext(ctx, n, fig3Options())
		if !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("point %s: err = %v, want ErrInjected", point, err)
		}
		if !strings.Contains(err.Error(), point) {
			t.Errorf("point %s: error %q does not name the point", point, err)
		}
	}
	// No registry on the context: the same options map cleanly.
	if _, err := SOIDominoMapContext(context.Background(), n, fig3Options()); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

// TestFlipFaultInvertsReorder pins the flip point's effect against a
// healthy run of the same network: armed at probability 1 it inverts
// the SOI stack order of every AND combine, so the mapping changes and
// carries more discharge devices, while a run without the registry on
// its context stays healthy.
func TestFlipFaultInvertsReorder(t *testing.T) {
	n := unateBench(t, "mux") // clean SOI needs no discharge device here
	opt := DefaultOptions()

	reg := faultpoint.New(1)
	reg.Arm(PointInvertReorder, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 1})
	flipped, err := SOIDominoMapContext(faultpoint.With(context.Background(), reg), n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Fired()[PointInvertReorder] == 0 {
		t.Fatal("flip point never fired")
	}

	clean, err := SOIDominoMap(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.TDisch >= flipped.Stats.TDisch {
		t.Errorf("clean run TDisch %d not below inverted %d — fault had no bite",
			clean.Stats.TDisch, flipped.Stats.TDisch)
	}
	if again, err := SOIDominoMap(n, opt); err != nil || again.Dump() != clean.Dump() {
		t.Errorf("the armed registry leaked into a later healthy run (err %v)", err)
	}
}
