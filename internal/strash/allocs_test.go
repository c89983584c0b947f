package strash

import (
	"os"
	"testing"

	"soidomino/internal/bench"
)

// strashAllocsCeiling pins Run's allocations on des (1508 nodes): the
// builder's presized tables, then the output network, which costs about
// one allocation per kept gate (logic.Network.AddGate copies its fanin
// list) — 1,142 at the time of writing — with a little headroom. One
// more allocation per node (a per-gate map, slice or signature) overshoots
// by far.
const strashAllocsCeiling = 1250

// TestStrashAllocs is the `make dp-allocs` guard on the strash front-end,
// which runs on the key path of every service request. Env-gated like
// the mapper's TestDPAllocs so plain `go test ./...` skips it.
func TestStrashAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	n := bench.MustBuild("des")
	allocs := testing.AllocsPerRun(10, func() { Run(n) })
	t.Logf("des: %.0f allocs per strash.Run (ceiling %d)", allocs, strashAllocsCeiling)
	if allocs > strashAllocsCeiling {
		t.Errorf("strash.Run allocates %.0f times on des, ceiling %d", allocs, strashAllocsCeiling)
	}
}
