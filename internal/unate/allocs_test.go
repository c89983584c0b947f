package unate

import (
	"os"
	"runtime"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/strash"
)

// frontEndAllocsCeiling and frontEndBytesCeiling pin Decompose + Convert
// on strashed des (1,247 nodes in, 2,564 out) with warm scratch: the
// literal table and output literals Convert reads, the unate network in
// tables presized by the marking pass and its Result — 11 allocations and
// 218,660 B at the time of writing. The memos, the hash-consing map, the
// tree stack and the input-name set come from the pool. One allocation
// per gate (a fanin slice) or a scratch table allocated per run
// overshoots by far.
const (
	frontEndAllocsCeiling = 13
	frontEndBytesCeiling  = 250 << 10
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
		if _, err := d.Convert(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, run)
	bytes := allocBytes(run)
	t.Logf("des: %.0f allocs, %.0f B per Decompose+Convert (ceilings %d, %d B)",
		allocs, bytes, frontEndAllocsCeiling, frontEndBytesCeiling)
	if allocs > frontEndAllocsCeiling {
		t.Errorf("Decompose+Convert allocates %.0f times on strashed des, ceiling %d", allocs, frontEndAllocsCeiling)
	}
	if bytes > frontEndBytesCeiling {
		t.Errorf("Decompose+Convert allocates %.0f B on strashed des, ceiling %d", bytes, frontEndBytesCeiling)
	}
}

// TestFrontEndAllocsWarmRun guards the scratch pool: warm, Decompose
// may allocate its Decomposed and Convert its network and Result, which
// a run with cold scratch pays too, and nothing
// else. A run after two collections, which empty the pool, must pay the
// scratch on top; if a warm run pays it too, the pool is bypassed.
func TestFrontEndAllocsWarmRun(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := strash.Run(bench.MustBuild("des")).Network
	d, err := Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	// The memos alone: one lit per source node, two int32 per phase
	// and table node.
	scratch := float64(4*len(n.Nodes) + 8*len(d.nodes))
	run := func() {
		d, err := Decompose(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Convert(); err != nil {
			t.Fatal(err)
		}
	}
	warm := allocBytes(run)
	cold := allocBytes(func() {
		runtime.GC()
		runtime.GC()
		run()
	})
	t.Logf("des: %.0f B per warm Decompose+Convert, %.0f B cold (memos alone %.0f B)", warm, cold, scratch)
	if warm > cold-scratch {
		t.Errorf("a warm run allocates %.0f B, a cold one %.0f B: the pooled scratch (at least %.0f B) is allocated again",
			warm, cold, scratch)
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
