package mapper

import (
	"context"
	"os"
	"testing"
)

// dpAllocsCeiling pins the DP's allocations per run on des (SOI, Pareto,
// sequential): a handful of per-run tables plus candidate-arena chunks
// and the slot table's frontier growth — 89 at the time of writing —
// with headroom. des has 2564 nodes, so one allocation per node or per
// combine creeping back in overshoots the ceiling by far.
const dpAllocsCeiling = 120

// TestDPAllocs is the `make dp-allocs` guard on the DP's allocation
// profile: newEngine plus the dynamic program (no traceback) on des with
// SOI Pareto must stay under dpAllocsCeiling allocations. Env-gated like
// the obs-overhead guards so plain `go test ./...` skips it.
func TestDPAllocs(t *testing.T) {
	if os.Getenv("SOIDOMINO_DP_ALLOCS") != "1" {
		t.Skip("set SOIDOMINO_DP_ALLOCS=1 to run the DP allocation guard")
	}
	n := unateBench(t, "des")
	opt := DefaultOptions()
	opt.Pareto = true
	opt.Workers = 1
	cfg := config{Options: opt, algorithm: "SOI_Domino_Map_pareto", trackDischarges: true, reorderStacks: true}
	allocs := testing.AllocsPerRun(10, func() {
		if err := newEngine(context.Background(), n, cfg).process(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("des SOI Pareto: %.0f allocs/run in the DP (ceiling %d)", allocs, dpAllocsCeiling)
	if allocs > dpAllocsCeiling {
		t.Errorf("DP allocates %.0f times per run, ceiling %d", allocs, dpAllocsCeiling)
	}
}
