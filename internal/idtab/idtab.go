// Package idtab is the front end's one hash table, behind strash's cons
// table, the unate lowering's gate table and the duplicate-input-name
// check. A Table holds ids, not keys: the caller hashes its key, walks
// the ids on the key's probe sequence comparing their keys in place (so
// no function value runs per probe) and enters a new id where the walk
// ended.
package idtab

// Table is open addressing with linear probing over a power-of-two
// []int32 of ids + 1 (0 is empty). Its backing keeps the largest size
// any run needed and Reset clears only the prefix the next run needs,
// so a warm Table allocates nothing and a small run after a large one
// pays for its own size. It doubles when an entry would take it past
// half full. The zero value is ready for Reset.
type Table struct {
	slots []int32 // a power-of-two prefix of all
	all   []int32
	old   []int32 // the slots while a doubling enters them again
	n     int     // ids entered
}

// Reset empties t and sizes it for about n ids.
func (t *Table) Reset(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if size > len(t.all) {
		t.all = make([]int32, size)
	}
	t.slots = t.all[:size]
	clear(t.slots)
	t.n = 0
}

// Probe is a position on a Table's probe sequence, valid until the
// table's next Insert or Reset.
type Probe struct {
	t *Table
	i int
}

// Probe starts the probe sequence of hash h.
func (t *Table) Probe(h uint64) Probe {
	return Probe{t, int(h & uint64(len(t.slots)-1))}
}

// Next returns the id at the probe's slot and moves on, or false at an
// empty slot, where the sequence ends.
func (p *Probe) Next() (int, bool) {
	id := p.t.slots[p.i]
	if id == 0 {
		return 0, false
	}
	p.i = (p.i + 1) & (len(p.t.slots) - 1)
	return int(id - 1), true
}

// Insert enters id at the empty slot where Next returned false. When
// the table doubles, it enters every id again where hash, the hash of
// any id it holds, id included, puts it.
func (p *Probe) Insert(id int, hash func(id int) uint64) {
	t := p.t
	if n := t.n + 1; 2*n > len(t.slots) {
		t.old = append(append(t.old[:0], t.slots...), int32(id+1))
		t.Reset(n)
		for _, v := range t.old {
			if v != 0 {
				q := t.Probe(hash(int(v - 1)))
				for _, ok := q.Next(); ok; _, ok = q.Next() {
				}
				t.slots[q.i] = v
			}
		}
		t.n = n
		return
	}
	t.slots[p.i] = int32(id + 1)
	t.n++
}
