package mapper

import (
	"context"
	"os"
	"testing"
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

// Traceback and audit ceilings on des (607 gates). Traceback builds in
// the pooled workspace and allocates only what the Result keeps: one
// output name per gate, plus tracebackAllocsHeadroom for the Result, its
// two output maps and its exact-size node, discharge-point and gate
// arrays — 617 allocs/run for SOI Pareto and for Domino_Map at the time
// of writing. Audit allocates its analysis buffer, its level table and
// its inverted-input set: 3. The RS_Map post-pass works in place and
// allocates its discharge-point array and two scratch buffers sized by
// the longest span: 3, whatever the gate count. One allocation per gate or
// per pulldown node creeping back overshoots any ceiling.
const (
	tracebackAllocsHeadroom = 16
	auditAllocsCeiling      = 8
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
		if _, err := e.traceback(); err != nil {
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

// TestTracebackAllocs is the `make dp-allocs` guard on traceback and
// audit: on one completed DP over des, rebuilding the gates (SOI Pareto
// and Domino_Map) may allocate one name per gate plus
// tracebackAllocsHeadroom, and re-auditing the result at most
// auditAllocsCeiling times.
func TestTracebackAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	for _, tc := range []struct {
		name string
		cfg  config
	}{
		{"SOI Pareto", desSOIParetoConfig()},
		{"Domino_Map", dominoMap.with(DefaultOptions())},
	} {
		e := newEngine(context.Background(), n, tc.cfg)
		if err := e.process(); err != nil {
			t.Fatal(err)
		}
		var res *Result
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = e.traceback(); err != nil {
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

// TestRearrangeAllocs is the `make dp-allocs` guard on the RS_Map
// post-pass: applied in place to a Domino_Map result of des, as
// RSMapContext applies it, it may allocate at most
// rearrangeAllocsCeiling times, with no term per gate, so RS_Map costs a
// constant number of allocations over Domino_Map.
func TestRearrangeAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := unateBench(t, "des")
	for _, deep := range []bool{false, true} {
		res, err := DominoMap(n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() { rearrange(res, deep) })
		t.Logf("des %s: %.0f allocs/run in the post-pass (ceiling %d), %d gates",
			rsName(deep), allocs, rearrangeAllocsCeiling, len(res.Gates))
		if allocs > rearrangeAllocsCeiling {
			t.Errorf("%s post-pass allocates %.0f times per run, ceiling %d", rsName(deep), allocs, rearrangeAllocsCeiling)
		}
		if err := res.Audit(); err != nil {
			t.Fatalf("%s: %v", rsName(deep), err)
		}
	}
}
