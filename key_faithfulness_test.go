package soidomino

import (
	"bytes"
	"math/rand"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// shuffledTwin rebuilds src with every non-input node re-declared in a
// random topological order and every internal name dropped. Primary
// inputs and outputs keep their names and order, the interface the
// cache key preserves.
func shuffledTwin(src *logic.Network, rng *rand.Rand) *logic.Network {
	twin := logic.New(src.Name)
	newID := make([]int, src.Len())
	for _, id := range src.Inputs {
		newID[id] = twin.AddInput(src.Nodes[id].Name)
	}
	// Kahn's algorithm over the non-input nodes, drawing the next node
	// at random from the ready set.
	pending := make([]int, src.Len())
	users := make([][]int, src.Len())
	var ready []int
	for id, node := range src.Nodes {
		if node.Op == logic.Input {
			continue
		}
		for _, f := range node.Fanin {
			if src.Nodes[f].Op != logic.Input {
				pending[id]++
				users[f] = append(users[f], id)
			}
		}
		if pending[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		id := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		switch node := src.Nodes[id]; node.Op {
		case logic.Const0, logic.Const1:
			newID[id] = twin.AddConst(node.Op == logic.Const1)
		default:
			fanin := make([]int, len(node.Fanin))
			for k, f := range node.Fanin {
				fanin[k] = newID[f]
			}
			newID[id] = twin.AddGate(node.Op, fanin...)
		}
		for _, u := range users[id] {
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	for _, o := range src.Outputs {
		twin.AddOutput(o.Name, newID[o.Node])
	}
	return twin
}

// TestKeyFaithfulness: the strash-on cache key claims that a submission
// and its re-declared, internally renamed twin are the same job. For
// every registry circuit and each of Domino_Map, RS_Map and
// SOI_Domino_Map, a seeded twin must share the service cache key and
// encode to byte-identical results, so serving one's cached answer for
// the other is faithful.
func TestKeyFaithfulness(t *testing.T) {
	opt := mapper.DefaultOptions()
	for i, name := range bench.Names() {
		src := bench.MustBuild(name)
		twin := shuffledTwin(src, rand.New(rand.NewSource(int64(i)+1)))
		if err := twin.Check(); err != nil {
			t.Fatalf("%s: twin invalid: %v", name, err)
		}
		if twin.Dump() == src.Dump() {
			t.Fatalf("%s: twin is a verbatim copy; the check would be vacuous", name)
		}
		pipe, err := report.PrepareNetwork(src)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		twinPipe, err := report.PrepareNetwork(twin)
		if err != nil {
			t.Fatalf("%s: prepare twin: %v", name, err)
		}
		for _, algo := range []string{"domino", "rs", "soi"} {
			if k, kt := service.CacheKey(src, algo, opt), service.CacheKey(twin, algo, opt); k != kt {
				t.Errorf("%s/%s: twin key differs:\n  %s\n  %s", name, algo, k, kt)
				continue
			}
			want := encodeMapping(t, name, algo, pipe, opt)
			if got := encodeMapping(t, name, algo, twinPipe, opt); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: twin shares the key but encodes differently", name, algo)
			}
		}
	}
}

// encodeMapping maps a prepared pipeline and returns its service encoding.
func encodeMapping(t *testing.T, name, algo string, pipe *report.Pipeline, opt mapper.Options) []byte {
	t.Helper()
	res, err := mapByAlgo(algo, pipe.Unate, opt)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, algo, err)
	}
	b, err := service.EncodeJSON(service.NewMapResult(name, pipe, res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
