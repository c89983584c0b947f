package logic

import "math/rand"

// RandomVectors returns count input assignments drawn from rng, each of
// length len(n.Inputs). It is deterministic for a seeded rng, which the
// benchmark harness relies on.
func (n *Network) RandomVectors(rng *rand.Rand, count int) [][]bool {
	vecs := make([][]bool, count)
	for i := range vecs {
		v := make([]bool, len(n.Inputs))
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		vecs[i] = v
	}
	return vecs
}

// Clone returns a deep copy of the network, its fanins in one fresh
// store. Nodes are copied as they are, without the Add methods' checks.
func (n *Network) Clone() *Network {
	c := New(n.Name)
	c.Grow(len(n.Nodes), n.faninTotal())
	for _, node := range n.Nodes {
		node.Fanin = c.store(node.Fanin)
		c.add(node)
	}
	c.Inputs = append([]int(nil), n.Inputs...)
	c.Outputs = append([]Output(nil), n.Outputs...)
	return c
}

// ShuffledTwin rebuilds n with every non-input node re-declared in a
// random topological order drawn from rng and every internal name
// dropped. Primary inputs and outputs keep their names and order: the
// twin is the same circuit submitted as different text, which the
// strash front-end and the service cache key must not tell apart.
func (n *Network) ShuffledTwin(rng *rand.Rand) *Network {
	twin := New(n.Name)
	twin.Grow(n.Len(), n.faninTotal())
	newID := make([]int, n.Len())
	for _, id := range n.Inputs {
		newID[id] = twin.AddInput(n.Nodes[id].Name)
	}
	// Kahn's algorithm over the non-input nodes, drawing the next node
	// at random from the ready set.
	pending := make([]int, n.Len())
	users := make([][]int, n.Len())
	var ready, fanin []int
	for id, node := range n.Nodes {
		if node.Op == Input {
			continue
		}
		for _, f := range node.Fanin {
			if n.Nodes[f].Op != Input {
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
		switch node := n.Nodes[id]; node.Op {
		case Const0, Const1:
			newID[id] = twin.AddConst(node.Op == Const1)
		default:
			fanin = fanin[:0]
			for _, f := range node.Fanin {
				fanin = append(fanin, newID[f])
			}
			newID[id] = twin.AddGate(node.Op, fanin...)
		}
		for _, u := range users[id] {
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	for _, o := range n.Outputs {
		twin.AddOutput(o.Name, newID[o.Node])
	}
	return twin
}
