package tuple

// MaxFrontier bounds the number of incomparable tuples kept per Pareto
// state {W,H,par_b,hasPI}: besides the shape, the par_b and has-PI bits
// are part of the state because they change how a sub-solution combines
// upward (stack ordering and foot insertion). The bound is a safety
// valve: on the benchmark suite frontiers stay small, and when the cap
// binds the cheapest entries are kept, so the mode degrades gracefully
// toward the paper's single-tuple heuristic.
const MaxFrontier = 32

// dominates reports whether a (of scalar cost ca) is at least as good as b
// (of cost cb) in every component that can influence any future
// combination.
func dominates(a *Tuple, ca int, b *Tuple, cb int) bool {
	return ca <= cb &&
		a.PDis <= b.PDis &&
		a.PDisBot <= b.PDisBot &&
		a.Depth <= b.Depth
}

// InsertPareto adds t to its state's frontier — the set of mutually
// non-dominated tuples under the partial order (cost under w, PDis,
// PDisBot, Depth) — unless its shape exceeds the bounds or an existing
// entry dominates it, removing entries t dominates. It reports whether
// the frontier changed. The paper's algorithm keeps exactly one tuple
// per {W,H} and breaks ties by p_dis, which can discard a sub-solution
// that a later combination would have preferred; the frontier closes
// that gap (see the brute-force optimality tests).
//
// t's cost is computed once, here, and cached beside it for every later
// scan, eviction and trim, so all InsertPareto calls between two Drains
// (or Resets) must pass the same w. The frontier is compacted in place
// only when t dominates an entry; otherwise t is appended, so entries
// keep their insertion order either way.
func (s *Slots) InsertPareto(t Tuple, w Weights) bool {
	i := s.index(&t)
	if i < 0 {
		return false
	}
	ct := w.Cost(&t)
	entries, costs := s.slot[i], s.cost[i]
	drop := -1 // the first entry t dominates
	for j := range entries {
		e, ce := &entries[j], costs[j]
		if dominates(e, ce, &t, ct) {
			return false // also covers exact ties: the incumbent stays
		}
		if drop < 0 && dominates(&t, ct, e, ce) {
			drop = j
		}
	}
	if drop >= 0 {
		k := drop
		for j := drop + 1; j < len(entries); j++ {
			if !dominates(&t, ct, &entries[j], costs[j]) {
				entries[k], costs[k] = entries[j], costs[j]
				k++
			}
		}
		entries, costs = entries[:k], costs[:k]
	}
	entries, costs = append(entries, t), append(costs, ct)
	if len(entries) > MaxFrontier {
		// Drop the entry with the worst cost (ties: largest PDis).
		worst := 0
		for j := 1; j < len(entries); j++ {
			if cj, cw := costs[j], costs[worst]; cj > cw || (cj == cw && entries[j].PDis > entries[worst].PDis) {
				worst = j
			}
		}
		entries = append(entries[:worst], entries[worst+1:]...)
		costs = append(costs[:worst], costs[worst+1:]...)
	}
	s.slot[i], s.cost[i] = entries, costs
	s.present[i>>6] |= 1 << (i & 63)
	return true
}

// TrimPerKey collapses each slot to its single best tuple under less
// (the first minimal one in insertion order). This is the
// graceful-degradation step of a tuple-budget-bound Pareto run: the
// frontier falls back to the paper's one-tuple-per-shape heuristic, so
// mapping still completes with a valid (if possibly suboptimal) result
// instead of exhausting the budget's reason for existing — memory.
func (s *Slots) TrimPerKey(less Less) {
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		sl := s.slot[i]
		best := 0
		for j := 1; j < len(sl); j++ {
			if less(sl[j], sl[best]) {
				best = j
			}
		}
		sl[0] = sl[best]
		s.slot[i] = sl[:1]
		if s.cost != nil {
			c := s.cost[i]
			c[0] = c[best]
			s.cost[i] = c[:1]
		}
	}
}
