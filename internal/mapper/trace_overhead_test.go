package mapper

import (
	"context"
	"os"
	"testing"

	"soidomino/internal/obs"
)

// TestTraceOverhead is the `make obs-overhead` guard on the trace
// hub's per-node sampling fast path: a traced run whose nodes are all
// sampled out must not allocate per node — SampleNode has to
// short-circuit before the time.Now()/fmt.Sprintf span machinery. The
// run-level constant (the run instant plus the dp/traceback phase
// spans) is allowed; anything scaling with the node count is the
// regression this pins. Env-gated like TestStatsOverhead so plain
// `go test ./...` stays load-tolerant.
func TestTraceOverhead(t *testing.T) {
	if os.Getenv("SOIDOMINO_OBS_OVERHEAD") != "1" {
		t.Skip("set SOIDOMINO_OBS_OVERHEAD=1 to run the overhead guard")
	}
	n := unateBench(t, "mux") // 45 And/Or nodes: a per-node alloc shows as +45
	opt := DefaultOptions()
	mapOnce := func(ctx context.Context) {
		if _, err := SOIDominoMapContext(ctx, n, opt); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(20, func() { mapOnce(context.Background()) })
	// A sample interval beyond every node id samples everything out
	// (node 0, always sampled, is a primary input with no DP span).
	hub := obs.NewTraceHub("test", 1)
	hub.SampleNodes(1 << 30)
	ctx := obs.WithTraceContext(obs.WithTraceHub(context.Background(), hub), obs.NewTraceContext())
	sampledOut := testing.AllocsPerRun(20, func() { mapOnce(ctx) })
	t.Logf("allocs/run: untraced %.0f, sampled-out trace %.0f", base, sampledOut)
	if sampledOut-base > 25 {
		t.Errorf("sampled-out trace adds %.0f allocs/run (want a small run-level constant, not per-node cost)",
			sampledOut-base)
	}
}
