package mapper

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/sp"
	"soidomino/internal/tuple"
	"soidomino/internal/unate"
)

// fig3Network is the paper's figure 3 example: OR(AND(a,b), AND(c,d)).
func fig3Network() *logic.Network {
	n := logic.New("fig3")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.AddOutput("f", n.AddGate(logic.Or, n.AddGate(logic.And, a, b), n.AddGate(logic.And, c, d)))
	return n
}

// fig2Network is the paper's running example (A+B+C)*D.
func fig2Network() *logic.Network {
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))
	return n
}

func fig3Options() Options {
	opt := DefaultOptions()
	opt.MaxWidth, opt.MaxHeight = 4, 4
	return opt
}

// TestFigure3Tuples pins the DP tuple table of the paper's worked example:
// the AND nodes carry {1,2} structures of cost 2 and form gates of cost 7;
// the OR node's table holds the {2,2} solution of cost 4 and the
// {2,1} both-gates solution of cost 16, and the final gate costs 9.
func TestFigure3Tuples(t *testing.T) {
	n := fig3Network()
	// The network is already decomposed and unate.
	e := newEngine(context.Background(), n, config{Options: fig3Options(), algorithm: "test"})
	andNode, orNode := 4, 6 // first AND gate, the output OR
	// Unforce the output so the root keeps its table tuples in its
	// candidate slice for inspection; its DP is otherwise unchanged.
	e.outRefs[orNode] = 0
	if err := e.process(); err != nil {
		t.Fatal(err)
	}
	// table returns a node's table tuples: its candidate slice minus the
	// trailing gate-as-input candidate.
	table := func(id int) []tuple.Tuple { return e.cands[id][:len(e.cands[id])-1] }
	lookup := func(id int, w, h int32) (tuple.Tuple, bool) {
		for _, tu := range table(id) {
			if tu.W == w && tu.H == h {
				return tu, true
			}
		}
		return tuple.Tuple{}, false
	}
	cost := func(t tuple.Tuple) int { return e.w.Cost(&t) }
	if at := table(andNode); len(at) != 1 {
		t.Fatalf("AND table has %d keys, want 1", len(at))
	}
	andTuple, ok := lookup(andNode, 1, 2)
	if !ok || andTuple.NTrans != 2 {
		t.Fatalf("AND {1,2} tuple = %+v, ok=%v (want cost 2)", andTuple, ok)
	}
	if cost := cost(e.form(e.gate[andNode])); cost != 7 {
		t.Errorf("AND gate cost = %d, want 7 (paper: {1,1,7})", cost)
	}
	if tu, ok := lookup(orNode, 2, 2); !ok || cost(tu) != 4 {
		t.Errorf("OR {2,2} tuple cost = %d, ok=%v, want 4", cost(tu), ok)
	}
	if tu, ok := lookup(orNode, 2, 1); !ok || cost(tu) != 16 {
		t.Errorf("OR {2,1} both-gates tuple cost = %d, ok=%v, want 16", cost(tu), ok)
	}
	if cost := cost(e.form(e.gate[orNode])); cost != 9 {
		t.Errorf("final gate cost = %d, want 9 (paper: {1,1,9})", cost)
	}
	if g := e.gate[orNode]; g.W != 2 || g.H != 2 {
		t.Errorf("gate formed from {%d,%d}, want {2,2}", g.W, g.H)
	}
}

// TestFigure3EndToEnd checks the mapped netlist: one 9-transistor footed
// gate with no discharge devices.
func TestFigure3EndToEnd(t *testing.T) {
	for _, f := range []func(*logic.Network, Options) (*Result, error){DominoMap, RSMap, SOIDominoMap} {
		res, err := f(fig3Network(), fig3Options())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Audit(); err != nil {
			t.Fatal(err)
		}
		if res.Stats.Gates != 1 || res.Stats.TLogic != 9 || res.Stats.TDisch != 0 {
			t.Errorf("%s: stats = %s, want 1 gate, Tlogic 9, Tdisch 0", res.Algorithm, res.Stats)
		}
		if got := res.Expr(res.Gates[0].Nodes); got != "a*b+c*d" && got != "c*d+a*b" {
			t.Errorf("%s: tree = %q", res.Algorithm, got)
		}
	}
}

// TestFigure2StackOrder pins the paper's central claim on its running
// example: the bulk baseline leaves the parallel stack on top of D and
// needs a discharge transistor; the SOI mapper grounds the stack and needs
// none. RS_Map fixes the baseline by post-reordering.
func TestFigure2StackOrder(t *testing.T) {
	opt := DefaultOptions()

	base, err := DominoMap(fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.TDisch != 1 {
		t.Errorf("Domino_Map Tdisch = %d, want 1:\n%s", base.Stats.TDisch, base.Dump())
	}
	if got := base.Expr(base.Gates[0].Nodes); got != "(A+B+C)*D" {
		t.Errorf("Domino_Map tree = %q, want (A+B+C)*D", got)
	}

	rs, err := RSMap(fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.TDisch != 0 {
		t.Errorf("RS_Map Tdisch = %d, want 0", rs.Stats.TDisch)
	}

	soi, err := SOIDominoMap(fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if soi.Stats.TDisch != 0 {
		t.Errorf("SOI_Domino_Map Tdisch = %d, want 0:\n%s", soi.Stats.TDisch, soi.Dump())
	}
	if got := soi.Expr(soi.Gates[0].Nodes); got != "D*(A+B+C)" {
		t.Errorf("SOI tree = %q, want D*(A+B+C)", got)
	}
	for _, r := range []*Result{base, rs, soi} {
		if err := r.Audit(); err != nil {
			t.Errorf("%s audit: %v", r.Algorithm, err)
		}
	}
}

// mapAll runs the full pipeline (decompose, unate, map) for one algorithm.
func mapAll(t *testing.T, n *logic.Network, algo func(*logic.Network, Options) (*Result, error), opt Options) *Result {
	t.Helper()
	d, err := unate.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Convert()
	if err != nil {
		t.Fatal(err)
	}
	res, err := algo(u.Network, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Audit(); err != nil {
		t.Fatalf("%s audit: %v\n%s", res.Algorithm, err, res.Dump())
	}
	return res
}

// checkMappedEquivalent exhaustively compares the mapped circuit against
// the original network.
func checkMappedEquivalent(t *testing.T, orig *logic.Network, res *Result) {
	t.Helper()
	k := len(orig.Inputs)
	if k > 14 {
		t.Fatalf("too many inputs for exhaustive check: %d", k)
	}
	in := make([]bool, k)
	vals := make(map[string]bool, k)
	for i := 0; i < 1<<k; i++ {
		for j := 0; j < k; j++ {
			in[j] = i&(1<<j) != 0
			vals[orig.Nodes[orig.Inputs[j]].Name] = in[j]
		}
		want, err := orig.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Eval(vals)
		if err != nil {
			t.Fatal(err)
		}
		for oi, out := range orig.Outputs {
			if got[out.Name] != want[oi] {
				t.Fatalf("%s: output %q wrong for input %0*b: got %v want %v",
					res.Algorithm, out.Name, k, i, got[out.Name], want[oi])
			}
		}
	}
}

func TestMappedEquivalenceSmall(t *testing.T) {
	n := logic.New("mix")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddGate(logic.Xor, a, b)
	m := n.AddGate(logic.And, n.AddGate(logic.Or, x, c), n.AddGate(logic.Nand, b, d))
	n.AddOutput("f", m)
	n.AddOutput("g", n.AddGate(logic.Nor, x, d))
	for _, algo := range []func(*logic.Network, Options) (*Result, error){DominoMap, RSMap, SOIDominoMap} {
		res := mapAll(t, n, algo, DefaultOptions())
		checkMappedEquivalent(t, n, res)
	}
}

func TestMultiFanoutGateSharedOnce(t *testing.T) {
	// g = a&b feeds three gates; it must be materialized exactly once.
	n := logic.New("shared")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	e := n.AddInput("e")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("x", n.AddGate(logic.And, g, c))
	n.AddOutput("y", n.AddGate(logic.Or, g, d))
	n.AddOutput("z", n.AddGate(logic.And, g, e))
	res := mapAll(t, n, SOIDominoMap, DefaultOptions())
	count := 0
	for _, gate := range res.Gates {
		for _, n := range gate.Nodes {
			if n.Kind == sp.Leaf && n.Gate() >= 0 {
				count++
			}
		}
	}
	shared := 0
	seen := map[int32]bool{}
	for _, gate := range res.Gates {
		if seen[gate.NodeID] {
			shared++
		}
		seen[gate.NodeID] = true
	}
	if shared != 0 {
		t.Errorf("%d duplicate gates for the same node", shared)
	}
	if count != 3 {
		t.Errorf("%d gate-driven leaves, want 3 (one per fanout)", count)
	}
	checkMappedEquivalent(t, n, res)
}

// TestGateNamesAvoidNetworkNames: traceback names a gate "_g<id>" after
// its node id, appending '_' while a network node holds that name. A
// second mapping whose inputs are named after the first mapping's gates
// (and one after a gate name plus '_') must name every gate off them and
// still audit clean and compute the source's function.
func TestGateNamesAvoidNetworkNames(t *testing.T) {
	build := func(names [5]string) *logic.Network {
		n := logic.New("clash")
		var in [5]int
		for i, name := range names {
			in[i] = n.AddInput(name)
		}
		g := n.AddGate(logic.And, in[0], in[1])
		n.AddOutput("x", n.AddGate(logic.And, g, in[2]))
		n.AddOutput("y", n.AddGate(logic.Or, g, in[3]))
		n.AddOutput("z", n.AddGate(logic.And, g, in[4]))
		return n
	}
	first := mapAll(t, build([5]string{"a", "b", "c", "d", "e"}), SOIDominoMap, DefaultOptions())
	if len(first.Gates) != 4 {
		t.Fatalf("%d gates, want 4:\n%s", len(first.Gates), first.Dump())
	}
	var names [5]string
	for i, g := range first.Gates {
		names[i] = g.Output
	}
	names[4] = names[0] + "_"
	n := build(names)
	for _, algo := range []func(*logic.Network, Options) (*Result, error){DominoMap, RSMap, SOIDominoMap} {
		res := mapAll(t, n, algo, DefaultOptions())
		taken := map[string]bool{}
		for _, name := range names {
			taken[name] = true
		}
		for _, g := range res.Gates {
			if taken[g.Output] {
				t.Fatalf("%s: gate %d output %q collides:\n%s", res.Algorithm, g.NodeID, g.Output, res.Dump())
			}
			taken[g.Output] = true
		}
		if g := res.Gates[res.OutputGate["x"]]; g.Output == "_g"+strconv.Itoa(int(g.NodeID)) {
			t.Errorf("%s: no collision exercised: gate %d kept %q", res.Algorithm, g.NodeID, g.Output)
		}
		checkMappedEquivalent(t, n, res)
	}
}

func TestOutputOnInputGetsBuffer(t *testing.T) {
	n := logic.New("thru")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("fa", a)
	n.AddOutput("fab", n.AddGate(logic.And, a, b))
	res := mapAll(t, n, SOIDominoMap, DefaultOptions())
	checkMappedEquivalent(t, n, res)
	gid, ok := res.OutputGate["fa"]
	if !ok {
		t.Fatal("no gate for pass-through output")
	}
	if res.Gates[gid].Pulldown() != 1 {
		t.Errorf("buffer gate pulldown = %d, want 1", res.Gates[gid].Pulldown())
	}
}

func TestConstOutput(t *testing.T) {
	n := logic.New("const")
	a := n.AddInput("a")
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))
	n.AddOutput("fa", a)
	res := mapAll(t, n, DominoMap, DefaultOptions())
	if v, ok := res.ConstOutputs["one"]; !ok || !v {
		t.Errorf("constant output not detected: %v", res.ConstOutputs)
	}
	checkMappedEquivalent(t, n, res)
}

func TestAlwaysFootedAddsFeet(t *testing.T) {
	opt := DefaultOptions()
	res1 := mapAll(t, fig3Network(), DominoMap, opt)
	opt.AlwaysFooted = true
	res2 := mapAll(t, fig3Network(), DominoMap, opt)
	if res2.Stats.TClock <= res1.Stats.TClock-1 {
		t.Errorf("AlwaysFooted Tclock %d vs %d", res2.Stats.TClock, res1.Stats.TClock)
	}
	for _, g := range res2.Gates {
		if !g.Footed {
			t.Error("AlwaysFooted left an unfooted gate")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	n := fig3Network()
	bad := []Options{
		{MaxWidth: 1, MaxHeight: 8, ClockWeight: 1, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 1, ClockWeight: 1, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 8, ClockWeight: 0, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 8, ClockWeight: 1, DepthWeight: 0, Objective: Depth},
	}
	for i, opt := range bad {
		if _, err := DominoMap(n, opt); err == nil {
			t.Errorf("options case %d should fail", i)
		}
	}
}

func TestRejectsNonUnate(t *testing.T) {
	n := logic.New("bad")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	if _, err := SOIDominoMap(n, DefaultOptions()); err == nil {
		t.Error("mapper should reject non-unate networks")
	}
}

func TestObjectiveString(t *testing.T) {
	if Area.String() != "area" || Depth.String() != "depth" {
		t.Error("Objective.String broken")
	}
}

// randomCircuit builds a random multi-level circuit with limited inputs so
// exhaustive equivalence stays cheap.
func randomCircuit(rng *rand.Rand) *logic.Network {
	n := logic.New("rnd")
	nin := 4 + rng.Intn(4)
	var pool []int
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	ngates := 6 + rng.Intn(24)
	for i := 0; i < ngates; i++ {
		op := ops[rng.Intn(len(ops))]
		k := 1
		if op.MaxFanin() != 1 {
			k = 2 + rng.Intn(2)
		}
		fanin := make([]int, k)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(op, fanin...))
	}
	for i := 0; i < 2+rng.Intn(2); i++ {
		n.AddOutput("o"+string(rune('0'+i)), pool[len(pool)-1-rng.Intn(len(pool)/2)])
	}
	return n
}

// Property: all three mappers produce functionally equivalent, auditable
// netlists on random circuits, and the SOI mapper never needs more
// discharge transistors than the baseline.
func TestMapperEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(77))}
	opt := DefaultOptions()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomCircuit(rng)
		d, err := unate.Decompose(n)
		if err != nil {
			return false
		}
		u, err := d.Convert()
		if err != nil {
			return false
		}
		tt, err := n.TruthTable()
		if err != nil {
			return false
		}
		var disch [3]int
		for ai, algo := range []func(*logic.Network, Options) (*Result, error){DominoMap, RSMap, SOIDominoMap} {
			res, err := algo(u.Network, opt)
			if err != nil {
				return false
			}
			if res.Audit() != nil {
				return false
			}
			disch[ai] = res.Stats.TDisch
			k := len(n.Inputs)
			vals := make(map[string]bool, k)
			for i := 0; i < 1<<k; i++ {
				for j := 0; j < k; j++ {
					vals[n.Nodes[n.Inputs[j]].Name] = i&(1<<j) != 0
				}
				got, err := res.Eval(vals)
				if err != nil {
					return false
				}
				for oi, out := range n.Outputs {
					if got[out.Name] != tt[i][oi] {
						return false
					}
				}
			}
		}
		// RS and SOI must not need more discharges than the baseline.
		return disch[1] <= disch[0] && disch[2] <= disch[0]
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// treeCircuit builds a fanout-free circuit (every gate feeds exactly one
// other gate), where the DP's discharge prediction must equal the netlist
// count exactly.
func treeCircuit(rng *rand.Rand, leaves int) *logic.Network {
	n := logic.New("tree")
	var pool []int
	for i := 0; i < leaves; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	for len(pool) > 1 {
		i := rng.Intn(len(pool))
		x := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		j := rng.Intn(len(pool))
		y := pool[j]
		op := logic.And
		if rng.Intn(2) == 0 {
			op = logic.Or
		}
		pool[j] = n.AddGate(op, x, y)
	}
	n.AddOutput("f", pool[0])
	return n
}

// TestDPPredictsDischarges: on fanout-free unate circuits, the discharge
// count accumulated by the SOI DP equals the number of discharge devices in
// the built netlist.
func TestDPPredictsDischarges(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	opt := DefaultOptions()
	for trial := 0; trial < 30; trial++ {
		n := treeCircuit(rng, 6+rng.Intn(20))
		res, err := SOIDominoMap(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the DP totals for the root gate.
		e := newEngine(context.Background(), n,
			config{Options: opt, algorithm: "x", pbeAware: true})
		if err := e.process(); err != nil {
			t.Fatal(err)
		}
		root := n.Outputs[0].Node
		if n.Nodes[root].Op == logic.Input {
			continue
		}
		predicted := int(e.form(e.gate[root]).NDisch)
		if predicted != res.Stats.TDisch {
			t.Fatalf("trial %d: DP predicts %d discharges, netlist has %d\n%s",
				trial, predicted, res.Stats.TDisch, res.Dump())
		}
	}
}

// TestDepthObjective verifies the depth mapper reports consistent levels
// and that SOI trades discharges into the cost.
func TestDepthObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := randomCircuit(rng)
	opt := DefaultOptions()
	opt.Objective = Depth

	base := mapAll(t, n, DominoMap, opt)
	soi := mapAll(t, n, SOIDominoMap, opt)
	checkMappedEquivalent(t, n, base)
	checkMappedEquivalent(t, n, soi)
	if base.Stats.Levels < 1 || soi.Stats.Levels < 1 {
		t.Error("levels must be at least 1")
	}
	// The SOI combined cost (weighted levels + discharges) must not exceed
	// the baseline's on the same network.
	bc := opt.DepthWeight*base.Stats.Levels + base.Stats.TDisch
	sc := opt.DepthWeight*soi.Stats.Levels + soi.Stats.TDisch
	if sc > bc {
		t.Errorf("SOI depth cost %d > baseline %d", sc, bc)
	}
}

// TestClockWeightReducesClockLoad: with k=2, clock-connected transistor
// count must not increase relative to k=1 under the SOI mapper.
func TestClockWeightReducesClockLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := randomCircuit(rng)
	opt1 := DefaultOptions()
	opt2 := DefaultOptions()
	opt2.ClockWeight = 2
	r1 := mapAll(t, n, SOIDominoMap, opt1)
	r2 := mapAll(t, n, SOIDominoMap, opt2)
	if r2.Stats.TClock > r1.Stats.TClock {
		t.Errorf("k=2 Tclock %d > k=1 Tclock %d", r2.Stats.TClock, r1.Stats.TClock)
	}
	checkMappedEquivalent(t, n, r2)
}

func TestResultEvalMissingInput(t *testing.T) {
	res := mapAll(t, fig3Network(), DominoMap, fig3Options())
	if _, err := res.Eval(map[string]bool{"a": true}); err == nil {
		t.Error("Eval with missing inputs should fail")
	}
}

func TestStatsString(t *testing.T) {
	res := mapAll(t, fig3Network(), DominoMap, fig3Options())
	if res.Stats.String() == "" {
		t.Error("Stats.String empty")
	}
	if res.Dump() == "" {
		t.Error("Dump empty")
	}
}

// TestShapeCapValidation: MaxWidth/MaxHeight are bounded on both sides —
// the DP's slot table is MaxWidth×MaxHeight — and every mapper
// refuses an out-of-range shape before touching the network.
func TestShapeCapValidation(t *testing.T) {
	for _, wh := range [][2]int{{MaxShape + 1, 8}, {5, MaxShape + 1}, {1, 8}, {5, 1}} {
		opt := DefaultOptions()
		opt.MaxWidth, opt.MaxHeight = wh[0], wh[1]
		if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "MaxWidth/MaxHeight") {
			t.Errorf("%v: Validate = %v, want a MaxWidth/MaxHeight error", wh, err)
		}
		if _, err := SOIDominoMap(fig3Network(), opt); err == nil {
			t.Errorf("%v: SOIDominoMap accepted the shape", wh)
		}
	}
	opt := DefaultOptions()
	opt.MaxWidth, opt.MaxHeight, opt.Pareto = MaxShape, MaxShape, true
	res, err := SOIDominoMap(fig3Network(), opt)
	if err != nil {
		t.Fatalf("the cap itself must map: %v", err)
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
}

// errAfterCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err calls — a deterministic stand-in for "the deadline
// expired mid-run" that pins exactly which checkpoint observes it.
type errAfterCtx struct {
	context.Context
	calls, after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestMidNodeCancellationRegression pins the bounded in-loop checkpoint:
// before it, the engine polled the context only at node boundaries, so a
// cancellation landing inside a node with a large Pareto cross-product
// went unseen until the node finished. The mux Pareto run has a node
// with > combineCheckInterval combines; sweeping the flip point across
// every checkpoint must (a) abort the run for every flip index below
// the total and (b) hit the in-loop checkpoint ("canceled inside node")
// at least once. Without the in-loop check, flip indexes at or past the
// node count complete instead of aborting.
func TestMidNodeCancellationRegression(t *testing.T) {
	n := unateBench(t, "mux")
	opt := DefaultOptions()
	opt.Pareto = true

	// Baseline: count checkpoints on an uncanceled run.
	st := new(obs.Stats)
	if _, err := SOIDominoMapContext(obs.WithStats(context.Background(), st), n, opt); err != nil {
		t.Fatal(err)
	}
	boundary := int64(n.Len())
	if st.CancelChecks <= boundary {
		t.Fatalf("mux Pareto run has no in-loop checkpoints (checks=%d, nodes=%d); the regression needs a node with > %d combines",
			st.CancelChecks, boundary, combineCheckInterval)
	}

	sawInLoop := false
	for after := int64(0); after < st.CancelChecks; after++ {
		ctx := &errAfterCtx{Context: context.Background(), after: after}
		res, err := SOIDominoMapContext(ctx, n, opt)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("flip after %d checks: got (%v, %v), want canceled", after, res, err)
		}
		if strings.Contains(err.Error(), "canceled inside node") {
			sawInLoop = true
		}
	}
	if !sawInLoop {
		t.Error("no flip point hit the in-loop checkpoint; the bounded mid-node check is gone")
	}
}

// TestNilStatsSmoke pins the nil-receiver contract of the stats path:
// with no collector on the context, every recording site — including
// combineAll's per-node AddCombines flush — must run on the nil
// *obs.Stats in both Pareto modes.
func TestNilStatsSmoke(t *testing.T) {
	n := unateBench(t, "mux")
	for _, pareto := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Pareto = pareto
		if _, err := SOIDominoMap(n, opt); err != nil {
			t.Fatalf("pareto=%v with nil stats: %v", pareto, err)
		}
	}
}

// TestUnmappableNodeError: a constant node feeding gates fails the run
// with the root cause, not with a cancellation.
func TestUnmappableNodeError(t *testing.T) {
	n := logic.New("bad-const")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c1 := n.AddConst(true)
	g := n.AddGate(logic.And, c1, a)
	h := n.AddGate(logic.Or, g, b)
	n.AddOutput("o", h)

	_, err := SOIDominoMap(n, DefaultOptions())
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "fold constants") {
		t.Fatalf("got %v, want the fed-constant error", err)
	}
}

// TestShapeCheckQuick pins combineAll's shape check against the slot
// table: for random in-bounds operand pairs, as an OR and as an AND in
// both stack orders, overBound rejects a pair exactly when the tuple it
// would build has no slot (an empty table refuses it).
func TestShapeCheckQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(30))}
	f := func(seed int64, pareto bool) bool {
		rng := rand.New(rand.NewSource(seed))
		opt := DefaultOptions()
		opt.MaxWidth, opt.MaxHeight = 2+rng.Intn(6), 2+rng.Intn(9)
		opt.Pareto = pareto
		e := newEngine(context.Background(), fig3Network(),
			config{Options: opt, algorithm: "test", pbeAware: true})
		operand := func(node int32) cand {
			pdis := rng.Int31n(6)
			tu := &tuple.Tuple{
				W: 1 + rng.Int31n(int32(opt.MaxWidth)), H: 1 + rng.Int31n(int32(opt.MaxHeight)),
				NTrans: rng.Int31n(20), OwnDisch: rng.Int31n(4), PDis: pdis,
				ParB: rng.Intn(2) == 0, HasPI: rng.Intn(2) == 0,
			}
			if tu.ParB {
				tu.PDisBot = rng.Int31n(pdis + 1)
			}
			tu.NDisch = tu.OwnDisch + rng.Int31n(3)
			return cand{tu, tuple.Choice{Node: node, Index: rng.Int31n(8)}}
		}
		for k := 0; k < 40; k++ {
			a, b := operand(0), operand(1)
			for _, c := range [...]struct{ or, topIsA bool }{{true, true}, {false, true}, {false, false}} {
				var built tuple.Tuple
				if c.or {
					built = e.combineOr(a, b)
				} else {
					built = e.combineAnd(a, b, c.topIsA)
				}
				fits := tuple.NewSlots(opt.MaxWidth, opt.MaxHeight, pareto).Insert(built, e.less)
				if e.overBound(c.or, a.t, b.t) == fits {
					t.Logf("W%d×H%d or=%v: %dx%d with %dx%d builds %dx%d, overBound=%v",
						opt.MaxWidth, opt.MaxHeight, c.or, a.t.W, a.t.H, b.t.W, b.t.H, built.W, built.H, !fits)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
