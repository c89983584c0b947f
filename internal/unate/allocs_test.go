package unate

import (
	"os"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/strash"
)

// frontEndAllocsCeiling pins Decompose + Convert on strashed des
// (1,247 nodes): 2,469 allocations at the time of writing, plus ~10%.
// Nearly all of them are the unate network's 2,404 gates
// (logic.Network.AddGate copies each fanin list); the literal table,
// the phase memos and the hash-consing map are a few dozen. One more
// allocation per gate (a per-gate slice, or an intermediate network)
// overshoots by far.
const frontEndAllocsCeiling = 2720

// TestFrontEndAllocs is the `make dp-allocs` guard on the lowering that
// runs before every mapping. Env-gated like TestStrashAllocs so plain
// `go test ./...` skips it.
func TestFrontEndAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the allocation guards")
	}
	n := strash.Run(bench.MustBuild("des")).Network
	allocs := testing.AllocsPerRun(10, func() {
		d, err := Decompose(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Convert(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("des: %.0f allocs per Decompose+Convert (ceiling %d)", allocs, frontEndAllocsCeiling)
	if allocs > frontEndAllocsCeiling {
		t.Errorf("Decompose+Convert allocates %.0f times on strashed des, ceiling %d", allocs, frontEndAllocsCeiling)
	}
}
