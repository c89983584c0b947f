package unate

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/strash"
)

// frontEndAllocsCeiling and frontEndBytesCeiling pin Decompose + Convert
// on strashed des (1,247 nodes in, 2,564 out) with warm scratch, and the
// Stats of its source and unate networks that report.PrepareStrashed
// keeps: the literal table and output literals Convert reads, the unate
// network in tables presized by the marking pass and its Result — 10
// allocations and 194,084 B at the time of writing. The memos, the
// gate and input-name table, the tree stack and the level table of
// Stats come from the pool. One allocation per gate (a fanin slice), a
// literal table outgrowing its presize, or a scratch table allocated
// per run, such as a fresh level table per Stats (30 KB), overshoots.
const (
	frontEndAllocsCeiling = 12
	frontEndBytesCeiling  = 200 << 10
)

// TestFrontEndAllocs is the `make dp-allocs` guard on the lowering that
// runs before every mapping. Env-gated like TestStrashAllocs so plain
// `go test ./...` skips it.
func TestFrontEndAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := strash.Run(bench.MustBuild("des")).Network
	run := func() {
		d, err := Decompose(n)
		if err != nil {
			t.Fatal(err)
		}
		u, err := d.Convert()
		if err != nil {
			t.Fatal(err)
		}
		Stats(n)
		Stats(u.Network)
	}
	allocs := testing.AllocsPerRun(10, run)
	bytes := allocBytes(run)
	t.Logf("des: %.0f allocs, %.0f B per Decompose+Convert+Stats (ceilings %d, %d B)",
		allocs, bytes, frontEndAllocsCeiling, frontEndBytesCeiling)
	if allocs > frontEndAllocsCeiling {
		t.Errorf("Decompose+Convert allocates %.0f times on strashed des, ceiling %d", allocs, frontEndAllocsCeiling)
	}
	if bytes > frontEndBytesCeiling {
		t.Errorf("Decompose+Convert allocates %.0f B on strashed des, ceiling %d", bytes, frontEndBytesCeiling)
	}
}

// TestFrontEndAllocsWarmRun guards the scratch pool: a warm
// Decompose + Convert may allocate what its results keep and nothing
// else. On des alone, and on c7552 and c432 in turn, so the pooled
// scratch alternates between a large run and one under a quarter of its
// size: neither may make a new table (the gate table above all) for its
// size. With the pool bypassed a des run pays its memos alone, 16 KB,
// on top.
func TestFrontEndAllocsWarmRun(t *testing.T) {
	skipUnlessDPAllocs(t)
	for _, names := range [][]string{{"des"}, {"c7552", "c432"}} {
		var nets []*logic.Network
		var ds []*Decomposed
		var us []*Result
		for _, name := range names {
			n := strash.Run(bench.MustBuild(name)).Network
			d, err := Decompose(n)
			if err != nil {
				t.Fatal(err)
			}
			u, err := d.Convert()
			if err != nil {
				t.Fatal(err)
			}
			nets, ds, us = append(nets, n), append(ds, d), append(us, u)
		}
		// keep allocates what the results hold: each Decomposed with its
		// gate table at the capacity Decompose gave it and its output
		// literals, and each Result with its network, built as Clone
		// builds it, and that network's name.
		var kept []any
		keep := func() {
			kept = kept[:0]
			for i, d := range ds {
				u := us[i].Network.Clone()
				u.Name = d.src.Name + ".unate"
				kept = append(kept,
					&Decomposed{nodes: make([]gate, 0, cap(d.nodes)), outs: slices.Clone(d.outs)},
					&Result{Network: u})
			}
		}
		run := func() {
			for _, n := range nets {
				d, err := Decompose(n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Convert(); err != nil {
					t.Fatal(err)
				}
			}
		}
		keptAllocs, keptBytes := testing.AllocsPerRun(10, keep), allocBytes(keep)
		allocs, bytes := testing.AllocsPerRun(10, run), allocBytes(run)
		t.Logf("%v: warm Decompose+Convert take %.0f allocs, %.0f B; their results %.0f, %.0f B",
			names, allocs, bytes, keptAllocs, keptBytes)
		// A collection during the runs makes the pool allocate its per-P
		// table again, 128 B on the one P allocBytes runs on.
		if allocs > keptAllocs || bytes > keptBytes+128 {
			t.Errorf("%v: warm Decompose+Convert allocate %.0f times, %.0f B: beyond their results' %.0f, %.0f B",
				names, allocs, bytes, keptAllocs, keptBytes)
		}
	}
}

func skipUnlessDPAllocs(t *testing.T) {
	t.Helper()
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
}

// allocBytes returns the bytes f allocates per call, averaged over a few
// calls on one P, as testing.AllocsPerRun counts allocations. One P also
// keeps the pool's per-P cache where the next call looks.
func allocBytes(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
