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
// non-dominated tuples under the partial order (cost, PDis, PDisBot,
// Depth) — unless its shape exceeds the bounds or an existing entry
// dominates it, removing entries t dominates. It reports whether the
// frontier changed. The paper's algorithm keeps exactly one tuple per
// {W,H} and breaks ties by p_dis, which can discard a sub-solution that a
// later combination would have preferred; the frontier closes that gap
// (see the brute-force optimality tests).
func (s *Slots) InsertPareto(t Tuple, cost Cost) bool {
	i := s.index(&t)
	if i < 0 {
		return false
	}
	ct := cost(t)
	entries := s.slot[i]
	keep := entries[:0]
	for j := range entries {
		e := &entries[j]
		ce := cost(*e)
		if dominates(e, ce, &t, ct) {
			return false // also covers exact ties: the incumbent stays
		}
		if !dominates(&t, ct, e, ce) {
			keep = append(keep, *e)
		}
	}
	keep = append(keep, t)
	if len(keep) > MaxFrontier {
		// Drop the entry with the worst cost (ties: largest PDis).
		worst := 0
		for j := 1; j < len(keep); j++ {
			cj, cw := cost(keep[j]), cost(keep[worst])
			if cj > cw || (cj == cw && keep[j].PDis > keep[worst].PDis) {
				worst = j
			}
		}
		keep = append(keep[:worst], keep[worst+1:]...)
	}
	s.slot[i] = keep
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
	}
}
