package soidomino

import (
	"context"
	"strings"
	"sync"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/cluster"
	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/strash"
	"soidomino/internal/verify"
)

// TestStrashDeterminismGate is the `make strash-determinism` gate: over
// every committed testdata circuit, the strash front-end must be
// byte-stable across repeated runs and idempotent. Any instability here
// would split the cluster's cache and break the routing-key golden.
func TestStrashDeterminismGate(t *testing.T) {
	for name, src := range testdataCircuits(t) {
		r1 := strash.Run(src)
		if err := r1.Network.Check(); err != nil {
			t.Fatalf("%s: strash output invalid: %v", name, err)
		}
		d1 := r1.Network.Dump()
		for run := 0; run < 3; run++ {
			if d2 := strash.Run(src).Network.Dump(); d2 != d1 {
				t.Fatalf("%s: run %d differs from run 0:\n%s\nvs\n%s", name, run+1, d1, d2)
			}
		}
		again := strash.Run(r1.Network)
		if d2 := again.Network.Dump(); d2 != d1 {
			t.Fatalf("%s: strash is not idempotent:\n%s\nvs\n%s", name, d1, d2)
		}
		if again.Counters.Merged != 0 || again.Counters.Dead != 0 {
			t.Fatalf("%s: re-strash still reduced: %+v", name, again.Counters)
		}
	}
}

// TestStrashOnOffEquivalent pins the correctness half of the tentpole
// contract on real circuits: for every committed testdata circuit and
// every mapper, the strash-on and strash-off pipelines both produce
// mappings functionally equivalent to the submitted network (and so to
// each other).
func TestStrashOnOffEquivalent(t *testing.T) {
	for name, src := range testdataCircuits(t) {
		for _, strashOff := range []bool{false, true} {
			pipe, err := report.PrepareNetworkMode(context.Background(), src, strashOff)
			if err != nil {
				t.Fatalf("%s strashOff=%t: prepare: %v", name, strashOff, err)
			}
			for _, algo := range []report.Algorithm{report.Domino, report.SOI} {
				res, err := pipe.Map(context.Background(), algo, mapper.DefaultOptions(), false)
				if err != nil {
					t.Fatalf("%s/%s strashOff=%t: %v", name, algo, strashOff, err)
				}
				if err := verify.MustBeEquivalent(src, res, verify.DefaultOptions()); err != nil {
					t.Fatalf("%s/%s strashOff=%t: %v", name, algo, strashOff, err)
				}
			}
		}
	}
}

// TestStrashSharesRouterShard closes the cluster loop of the tentpole:
// two structurally identical but textually different submissions resolve
// to one routing key and therefore one shard preference list on the
// router's consistent-hash ring — one replica maps, everyone else hits
// its cache.
func TestStrashSharesRouterShard(t *testing.T) {
	tidy := `.model shardme
.inputs a b c
.outputs y
.names a b t0
11 1
.names t0 c y
1- 1
-1 1
.end
`
	// Same circuit: t0 renamed, operands flipped, plus a dead gate.
	scrambled := `.model shardme
.inputs a b c
.outputs y
.names b a q7
11 1
.names a c junk
11 1
.names q7 c y
1- 1
-1 1
.end
`
	k1, err := service.RequestKey(context.Background(), &service.MapRequest{BLIF: tidy})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := service.RequestKey(context.Background(), &service.MapRequest{BLIF: scrambled})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("routing keys differ:\n  %s\n  %s", k1, k2)
	}
	ring := cluster.NewRing([]string{"http://r0", "http://r1", "http://r2", "http://r3"}, 64)
	p1, p2 := ring.Prefer(k1, 2), ring.Prefer(k2, 2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("shard preference diverged: %v vs %v", p1, p2)
		}
	}
}

// TestStrashPoolConcurrent runs the pooled front end from several
// goroutines at once on mixed circuits: strash.RunContext, the inline
// BLIF key (service.RequestKey, which lowers into a pooled strash
// builder) and report.PrepareNetwork (strash, then the pooled unate
// scratch). One goroutine arms strash.bad-merge on every other run, so a
// builder it returns to the pool has carried a firing fault registry.
// Every unarmed result must equal the serial one: pooled scratch never
// carries another run's tables or faults. `make strash-determinism`
// runs it under -race.
func TestStrashPoolConcurrent(t *testing.T) {
	type want struct {
		strash, unate string
		key           [32]byte
		reqKey        string
	}
	ctx := context.Background()
	names := []string{"mux", "z4ml", "c432", "c880", "c1908", "des"}
	nets := make([]*logic.Network, len(names))
	reqs := make([]*service.MapRequest, len(names))
	wants := make([]want, len(names))
	for i, name := range names {
		nets[i] = bench.MustBuild(name)
		var text strings.Builder
		if err := blif.Write(&text, nets[i]); err != nil {
			t.Fatal(err)
		}
		reqs[i] = &service.MapRequest{BLIF: text.String()}
		sr := strash.Run(nets[i])
		key, err := service.RequestKey(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := report.PrepareNetwork(nets[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{sr.Network.Dump(), pipe.Unate.Dump(), sr.Key, key}
	}
	reg := faultpoint.New(1)
	reg.Arm(strash.PointBadMerge, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 1})
	armed := faultpoint.With(ctx, reg)

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds*len(names); r++ {
				i := (r + w) % len(names)
				if w == 0 && r%2 == 0 {
					strash.RunContext(armed, nets[i]) // corrupt, not compared
				}
				// The key first: its builder sets no registry of its own.
				if key, err := service.RequestKey(ctx, reqs[i]); err != nil || key != wants[i].reqKey {
					t.Errorf("worker %d: %s keys as %q (%v), serial %q", w, names[i], key, err, wants[i].reqKey)
				}
				if sr := strash.RunContext(ctx, nets[i]); sr.Network.Dump() != wants[i].strash || sr.Key != wants[i].key {
					t.Errorf("worker %d: %s strashes differently from the serial run", w, names[i])
				}
				pipe, err := report.PrepareNetwork(nets[i])
				if err != nil || pipe.Unate.Dump() != wants[i].unate {
					t.Errorf("worker %d: %s lowers differently from the serial run (%v)", w, names[i], err)
				}
			}
		}(w)
	}
	wg.Wait()
	if reg.Fired()[strash.PointBadMerge] == 0 {
		t.Fatal("the armed runs never fired strash.bad-merge")
	}
}
