package strash

import (
	"os"
	"runtime"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
)

// strashAllocsCeiling and strashBytesCeiling pin a warm Run on des
// (1,508 nodes in, 1,247 out): the Result and the output network, whose
// node table and fanin store are presized from DCE's kept counts, plus
// its input and output lists — 6 allocations and 87,232 B at the time of
// writing. The builder's tables come from the pool. One allocation per
// gate (a fanin slice, a signature) or a scratch table allocated per
// run overshoots by far.
const (
	strashAllocsCeiling = 8
	strashBytesCeiling  = 96 << 10
)

// TestStrashAllocs is the `make dp-allocs` guard on the strash front-end,
// which runs on the key path of every service request. Env-gated like
// the mapper's TestDPAllocs so plain `go test ./...` skips it.
func TestStrashAllocs(t *testing.T) {
	skipUnlessDPAllocs(t)
	n := bench.MustBuild("des")
	run := func() { Run(n) }
	allocs := testing.AllocsPerRun(10, run)
	bytes := allocBytes(run)
	t.Logf("des: %.0f allocs, %.0f B per strash.Run (ceilings %d, %d B)",
		allocs, bytes, strashAllocsCeiling, strashBytesCeiling)
	if allocs > strashAllocsCeiling {
		t.Errorf("strash.Run allocates %.0f times on des, ceiling %d", allocs, strashAllocsCeiling)
	}
	if bytes > strashBytesCeiling {
		t.Errorf("strash.Run allocates %.0f B on des, ceiling %d", bytes, strashBytesCeiling)
	}
}

// TestStrashAllocsWarmRun guards the builder pool: a warm Run may
// allocate what a Clone of its output network takes, plus its Result,
// and nothing else. On des alone, and on c7552 and c432 in turn, so the
// pooled builder alternates between a large run and one under a quarter
// of its size: neither may make a new cons table (or any other) for its
// size. With the pool bypassed a des run pays every scratch table again,
// about 290 KB.
func TestStrashAllocsWarmRun(t *testing.T) {
	skipUnlessDPAllocs(t)
	for _, names := range [][]string{{"des"}, {"c7552", "c432"}} {
		var nets []*logic.Network
		var outs []*logic.Network
		for _, name := range names {
			n := bench.MustBuild(name)
			nets = append(nets, n)
			outs = append(outs, Run(n).Network)
		}
		clone := func() {
			for _, out := range outs {
				out.Clone()
			}
		}
		run := func() {
			for _, n := range nets {
				Run(n)
			}
		}
		outAllocs, outBytes := testing.AllocsPerRun(10, clone), allocBytes(clone)
		allocs, bytes := testing.AllocsPerRun(10, run), allocBytes(run)
		t.Logf("%v: warm Runs take %.0f allocs, %.0f B; their output networks %.0f, %.0f B",
			names, allocs, bytes, outAllocs, outBytes)
		resultAllocs, resultBytes := float64(len(nets)), float64(128*len(nets))
		if allocs > outAllocs+resultAllocs || bytes > outBytes+resultBytes {
			t.Errorf("%v: warm Runs allocate %.0f times, %.0f B: beyond their output networks' %.0f, %.0f B and their Results",
				names, allocs, bytes, outAllocs, outBytes)
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
