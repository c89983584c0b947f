package mapper

import (
	"context"
	"os"
	"testing"
	"unsafe"

	"soidomino/internal/logic"
	"soidomino/internal/pbe"
)

// dpAllocsCeiling pins the DP's allocations per warm run on des (SOI,
// Pareto): the per-run tables, candidate-arena chunks and the slot
// table's frontier growth all live in the pooled workspace, so a warm
// run allocates only the engine itself — 1 at the time of writing (88
// before the pool). des has 2564 nodes, so one allocation per node, per
// combine or per arena chunk creeping back in overshoots the ceiling.
const dpAllocsCeiling = 2

// warmRunAllocsHeadroom is what a warm SOIDominoMap run on des may
// allocate beyond its traceback: the engine and the phase timers, 3 at
// the time of writing. A run that misses the pool re-allocates its whole
// DP state, about 170 allocations on des, and overshoots.
const warmRunAllocsHeadroom = 8

// Traceback and audit ceilings on des (607 gates). Traceback and the
// discharge pass build in the pooled workspace and allocate only what the
// Result keeps: one output name per gate, plus tracebackAllocsHeadroom
// for the Result, its two output maps and its exact-size node,
// discharge-point and gate arrays — 617 allocs/run for SOI Pareto,
// Domino_Map, RS_Map and RS_Map_deep at the time of writing. Audit
// allocates its discharge buffer and its inverted-input set: 2.
// Rearrange copies a Domino_Map result's gates into a pooled
// workspace, runs the pass and copies the result out: the Result and its
// node, discharge-point, gate and gate-pointer arrays, 5 whatever the
// gate count. One allocation per gate or per pulldown node creeping back
// overshoots any ceiling.
const (
	tracebackAllocsHeadroom = 16
	auditAllocsCeiling      = 4
	rearrangeAllocsCeiling  = 8
)

func skipUnlessDPAllocs(t *testing.T) {
	t.Helper()
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
}

// desSOIParetoConfig is the configuration SOIDominoMapContext builds for
// a Pareto run.
func desSOIParetoConfig() config {
	opt := DefaultOptions()
	opt.Pareto = true
	return soiMap.with(opt)
}

// TestDPAllocs is the `make dp-allocs` guard on the DP's allocation
// profile: newEngine plus the dynamic program (no traceback) on des with
// SOI Pareto must stay under dpAllocsCeiling allocations. Env-gated like
// the obs-overhead guards so plain `go test ./...` skips it.
func TestDPAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	cfg := desSOIParetoConfig()
	allocs := testing.AllocsPerRun(10, func() {
		e := newEngine(context.Background(), n, cfg)
		if err := e.process(); err != nil {
			t.Fatal(err)
		}
		e.release()
	})
	t.Logf("des SOI Pareto: %.0f allocs/run in the DP (ceiling %d)", allocs, dpAllocsCeiling)
	if allocs > dpAllocsCeiling {
		t.Errorf("DP allocates %.0f times per run, ceiling %d", allocs, dpAllocsCeiling)
	}
}

// TestDPAllocsWarmRun guards the workspace pool from the public entry
// point: a warm SOIDominoMap Pareto run on des may allocate what its
// traceback and Result take, plus warmRunAllocsHeadroom, and no more.
func TestDPAllocsWarmRun(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	cfg := desSOIParetoConfig()
	e := newEngine(context.Background(), n, cfg)
	if err := e.process(); err != nil {
		t.Fatal(err)
	}
	traceback := testing.AllocsPerRun(10, func() {
		if _, err := e.traceback(nil); err != nil {
			t.Fatal(err)
		}
	})
	e.release()
	run := testing.AllocsPerRun(10, func() {
		if _, err := SOIDominoMap(n, cfg.Options); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("des SOI Pareto: %.0f allocs per warm run, %.0f of them in traceback (headroom %d)",
		run, traceback, warmRunAllocsHeadroom)
	if run > traceback+warmRunAllocsHeadroom {
		t.Errorf("a warm run allocates %.0f times, traceback %.0f: %.0f beyond it, headroom %d",
			run, traceback, run-traceback, warmRunAllocsHeadroom)
	}
}

// TestTracebackAllocs is the `make dp-allocs` guard on traceback, the
// discharge pass and audit: on one completed DP over des, rebuilding the
// gates and placing their discharges (SOI Pareto, Domino_Map, and the
// Domino_Map DP with RS_Map's and RS_Map_deep's stack orders) may
// allocate one name per gate plus tracebackAllocsHeadroom, and
// re-auditing the result at most auditAllocsCeiling times.
func TestTracebackAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	domino := dominoMap.with(DefaultOptions())
	for _, tc := range []struct {
		name    string
		cfg     config
		reorder stackOrder
	}{
		{"SOI Pareto", desSOIParetoConfig(), nil},
		{"Domino_Map", domino, nil},
		{rsName(false), domino, rsOrder(false)},
		{rsName(true), domino, rsOrder(true)},
	} {
		e := newEngine(context.Background(), n, tc.cfg)
		if err := e.process(); err != nil {
			t.Fatal(err)
		}
		var res *Result
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = e.traceback(tc.reorder); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := len(res.Gates) + tracebackAllocsHeadroom
		t.Logf("des %s: %.0f allocs/run in traceback (ceiling %d), %d gates", tc.name, allocs, ceiling, len(res.Gates))
		if allocs > float64(ceiling) {
			t.Errorf("%s traceback allocates %.0f times per run, ceiling %d", tc.name, allocs, ceiling)
		}
		allocs = testing.AllocsPerRun(10, func() {
			if err := res.Audit(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("des %s: %.0f allocs/run in Audit (ceiling %d)", tc.name, allocs, auditAllocsCeiling)
		if allocs > auditAllocsCeiling {
			t.Errorf("%s Audit allocates %.0f times per run, ceiling %d", tc.name, allocs, auditAllocsCeiling)
		}
	}
}

// TestRearrangeAllocs is the `make dp-allocs` guard on Rearrange:
// deriving RS_Map or RS_Map_deep from a Domino_Map result of des may
// allocate at most rearrangeAllocsCeiling times, with no term per gate.
func TestRearrangeAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	dom, err := DominoMap(n, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, deep := range []bool{false, true} {
		var res *Result
		allocs := testing.AllocsPerRun(10, func() {
			if res, err = Rearrange(dom, deep); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("des %s: %.0f allocs/run in Rearrange (ceiling %d), %d gates",
			rsName(deep), allocs, rearrangeAllocsCeiling, len(res.Gates))
		if allocs > rearrangeAllocsCeiling {
			t.Errorf("Rearrange to %s allocates %.0f times per run, ceiling %d", rsName(deep), allocs, rearrangeAllocsCeiling)
		}
		if err := res.Audit(); err != nil {
			t.Fatalf("%s: %v", rsName(deep), err)
		}
	}
}

// TestRearrangeAllocsDirectRun guards the direct RS_Map and RS_Map_deep
// runs: a warm RSMapContext or RSMapDeepContext run on des may allocate
// no more than a warm DominoMapContext run, since the stack reordering
// happens inside the one discharge pass every mapper runs, on the pooled
// workspace. A pass that analyzes the gates a second time, or keeps its
// own point array or scratch, allocates more.
func TestRearrangeAllocsDirectRun(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	ctx := context.Background()
	warm := func(run func(context.Context, *logic.Network, Options) (*Result, error)) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := run(ctx, n, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
	}
	domino := warm(DominoMapContext)
	for _, deep := range []bool{false, true} {
		run := RSMapContext
		if deep {
			run = RSMapDeepContext
		}
		allocs := warm(run)
		t.Logf("des: %.0f allocs per warm %s run, %.0f per warm Domino_Map run", allocs, rsName(deep), domino)
		if allocs > domino {
			t.Errorf("a warm %s run allocates %.0f times, %.0f more than a warm Domino_Map run", rsName(deep), allocs, allocs-domino)
		}
	}
}

// gateSizeCeiling pins unsafe.Sizeof(Gate{}): a Result holds one Gate per
// mapped gate, so the []Gate finishGates copies out is the largest thing
// a mapping keeps.
const gateSizeCeiling = 112

// TestGateSize fails when Gate grows past gateSizeCeiling, as an int
// field or a bool away from the other one would make it.
func TestGateSize(t *testing.T) {
	if size := unsafe.Sizeof(Gate{}); size > gateSizeCeiling {
		t.Errorf("Gate is %d bytes, ceiling %d", size, gateSizeCeiling)
	}
}

// seqDischargeAllocsCeiling pins one SequenceAware discharge pass
// (pbe.Discharges with seqAware) over des's Domino_Map gates: half the
// 87,257 allocations it took when pbe.Excitable rebuilt the span's graph
// for every point it was asked about.
const seqDischargeAllocsCeiling = 87257 / 2

// TestDischargeAllocsSequenceAware is the `make dp-allocs` guard on
// sequence-aware pruning, which every seq request's discharge pass and
// audit run once per gate.
func TestDischargeAllocsSequenceAware(t *testing.T) {
	skipUnlessDPAllocs(t)
	res, err := DominoMap(unateBench(t, "des"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var dst, pot []pbe.Point
	kept := 0
	allocs := testing.AllocsPerRun(5, func() {
		kept = 0
		for _, g := range res.Gates {
			dst = pbe.Discharges(dst[:0], g.Nodes, true, &pot)
			kept += len(dst)
		}
	})
	t.Logf("des: %.0f allocs per SequenceAware discharge pass over %d gates, %d points kept (ceiling %d)",
		allocs, len(res.Gates), kept, seqDischargeAllocsCeiling)
	if allocs > seqDischargeAllocsCeiling {
		t.Errorf("a SequenceAware discharge pass over des allocates %.0f times, ceiling %d", allocs, seqDischargeAllocsCeiling)
	}
}
