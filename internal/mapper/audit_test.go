package mapper

import (
	"fmt"
	"strings"
	"testing"

	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// TestAuditCatchesCorruption is the guard on Audit's independence from
// traceback's bookkeeping and the discharge pass: on a des mapping,
// corrupting one gate's summary field, one node of its pulldown span, or
// its discharge list must make Audit fail and name that gate; so must
// corrupting, after CompoundTransform, one stage's discharge list of a
// compound gate or the gate's concatenated list. Every corruption is
// undone before the next, and the untouched result must audit clean
// before and after.
func TestAuditCatchesCorruption(t *testing.T) {
	// Domino_Map leaves parallel stacks above series junctions, so des
	// gets gates with discharge points as well as gate-driven leaves.
	res, err := DominoMap(unateBench(t, "des"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Audit(); err != nil {
		t.Fatalf("clean result: %v", err)
	}
	// A gate with nested compositions and discharge points, driven by
	// another gate if des has one such.
	var g *Gate
	for _, c := range res.Gates {
		if len(c.Nodes) > 3 && len(c.Discharges) > 0 && (g == nil || g.Level == 1) {
			g = c
		}
	}
	if g == nil {
		t.Fatal("des has no gate with nested compositions and a discharge point")
	}
	t.Logf("corrupting gate %d: %s, level %d, %d discharges", g.ID, res.Expr(g.Nodes), g.Level, len(g.Discharges))
	expect := func(what string, corrupt, restore func()) {
		t.Helper()
		corrupt()
		err := res.Audit()
		restore()
		switch {
		case err == nil:
			t.Errorf("%s: Audit passed", what)
		case !strings.Contains(err.Error(), fmt.Sprintf("gate %d:", g.ID)):
			t.Errorf("%s: Audit does not name gate %d: %v", what, g.ID, err)
		}
	}

	// One summary field at a time.
	for _, f := range []struct {
		name  string
		field *int32
	}{
		{"transistors", &g.Transistors},
		{"width", &g.Width},
		{"height", &g.Height},
		{"level", &g.Level},
		{"new inverters", &g.NewInverters},
	} {
		old := *f.field
		expect("summary "+f.name, func() { *f.field = old + 1 }, func() { *f.field = old })
	}
	expect("summary has-PI", func() { g.HasPI = !g.HasPI }, func() { g.HasPI = !g.HasPI })

	// One flat node at a time: every composition's kind flipped, and its
	// child count raised and lowered by one.
	for i, n := range g.Nodes {
		if n.Kind == sp.Leaf {
			continue
		}
		flip := sp.Parallel
		if n.Kind == sp.Parallel {
			flip = sp.Series
		}
		restore := func() { g.Nodes[i] = n }
		expect(fmt.Sprintf("node %d kind", i), func() { g.Nodes[i].Kind = flip }, restore)
		expect(fmt.Sprintf("node %d children+1", i), func() { g.Nodes[i].Arg++ }, restore)
		expect(fmt.Sprintf("node %d children-1", i), func() { g.Nodes[i].Arg-- }, restore)
	}

	// A discharge list: a point dropped, moved, or added.
	corruptList := func(what string, list *[]pbe.Point) {
		t.Helper()
		old := *list
		restore := func() { *list = old }
		expect(what+" dropped", func() { *list = old[1:] }, restore)
		expect(what+" moved", func() {
			*list = append([]pbe.Point(nil), old...)
			(*list)[0].Below++
		}, restore)
		expect(what+" added", func() { *list = append(append([]pbe.Point(nil), old...), old[0]) }, restore)
	}
	corruptList("discharge", &g.Discharges)
	if err := res.Audit(); err != nil {
		t.Fatalf("restored result: %v", err)
	}

	// A compound gate with a discharge point in one of its stages. No
	// split of a des gate saves transistors, so splits are forced.
	opt := DefaultCompoundOptions()
	opt.SplitWiderThan = 2
	CompoundTransform(res, opt)
	if err := res.Audit(); err != nil {
		t.Fatalf("compound result: %v", err)
	}
	g = nil
	for _, c := range res.Gates {
		if c.Compound != nil && len(c.Discharges) > 0 {
			g = c
			break
		}
	}
	if g == nil {
		t.Fatal("des has no compound gate with a discharge point")
	}
	t.Logf("corrupting compound gate %d: %s, %d stages, %d discharges", g.ID, res.Expr(g.Nodes), len(g.Compound.Stages), len(g.Discharges))
	for k := range g.Compound.Stages {
		if st := &g.Compound.Stages[k]; len(st.Discharges) > 0 {
			corruptList(fmt.Sprintf("stage %d discharge", k), &st.Discharges)
		}
	}
	corruptList("concatenated discharge", &g.Discharges)
	if err := res.Audit(); err != nil {
		t.Fatalf("restored compound result: %v", err)
	}
}
