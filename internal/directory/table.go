package directory

import "slices"

// Table maps block numbers to per-block state: the directory's entries
// and the cache controllers' outstanding misses, home transactions and
// first-use interlocks. It is an inline open-addressed hash table
// (linear probing, power-of-two size, Fibonacci hashing) with deletion:
// removal shifts the probe run back instead of leaving tombstones.
// Lookups are an array index, and once the table has grown to its
// working set, inserts and deletes allocate nothing. Growth is
// geometric in the number of distinct live blocks, never in the
// address space. The zero value is an empty table.
type Table[V any] struct {
	slots []tableSlot[V] // power-of-two length
	shift uint           // 32 - log2(len(slots))
	used  int
}

type tableSlot[V any] struct {
	block uint32
	live  bool
	val   V
}

const tableMin = 8

func (t *Table[V]) alloc(n int) {
	t.slots = make([]tableSlot[V], n)
	t.shift = 32
	for m := n; m > 1; m >>= 1 {
		t.shift--
	}
}

// home is block's preferred slot.
func (t *Table[V]) home(block uint32) uint32 {
	return (block * 2654435761) >> t.shift
}

// slotFor returns block's live slot if present, otherwise the empty
// slot where it would be inserted. The table must be allocated.
func (t *Table[V]) slotFor(block uint32) int {
	mask := uint32(len(t.slots) - 1)
	i := t.home(block)
	for t.slots[i].live && t.slots[i].block != block {
		i = (i + 1) & mask
	}
	return int(i)
}

// Find returns the index of block's live slot, or -1.
func (t *Table[V]) Find(block uint32) int {
	if t.used == 0 {
		return -1
	}
	if i := t.slotFor(block); t.slots[i].live {
		return i
	}
	return -1
}

// Len counts live entries.
func (t *Table[V]) Len() int { return t.used }

// Ref returns a pointer to block's value, or nil if it has none. The
// pointer aliases the table: it stays valid only until the next
// insertion (growth moves entries) or deletion.
func (t *Table[V]) Ref(block uint32) *V {
	if i := t.Find(block); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Get returns block's value.
func (t *Table[V]) Get(block uint32) (V, bool) {
	if i := t.Find(block); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether block has an entry.
func (t *Table[V]) Has(block uint32) bool { return t.Find(block) >= 0 }

// Insert returns a pointer to block's value, inserting a zero value
// first if block has none; inserted reports which. The pointer follows
// Ref's aliasing rule. Only an insertion can grow the table, so looking
// up a present block never moves entries.
func (t *Table[V]) Insert(block uint32) (v *V, inserted bool) {
	if t.slots == nil {
		t.alloc(tableMin)
	}
	i := t.slotFor(block)
	if t.slots[i].live {
		return &t.slots[i].val, false
	}
	if (t.used+1)*4 > len(t.slots)*3 { // keep load below 3/4
		t.grow()
		i = t.slotFor(block)
	}
	s := &t.slots[i]
	s.live, s.block = true, block
	t.used++
	return &s.val, true
}

// Put sets block's value, inserting it if absent.
func (t *Table[V]) Put(block uint32, v V) {
	p, _ := t.Insert(block)
	*p = v
}

func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for i := range old {
		if old[i].live {
			t.slots[t.slotFor(old[i].block)] = old[i]
		}
	}
}

// Del removes block's entry, if any.
func (t *Table[V]) Del(block uint32) {
	if i := t.Find(block); i >= 0 {
		t.DeleteAt(i)
	}
}

// DeleteAt removes the live entry in slot i (as returned by Find),
// shifting later members of its probe run back so every remaining
// entry stays reachable from its home slot.
func (t *Table[V]) DeleteAt(i int) {
	mask := len(t.slots) - 1
	t.used--
	for {
		t.slots[i] = tableSlot[V]{}
		j := i
		for {
			j = (j + 1) & mask
			if !t.slots[j].live {
				return
			}
			// The entry at j may move to i only if its home does not
			// lie cyclically in (i, j].
			h := int(t.home(t.slots[j].block))
			if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// Reset empties the table, keeping its storage.
func (t *Table[V]) Reset() {
	clear(t.slots)
	t.used = 0
}

// SortedKeys returns the live blocks ascending: the deterministic order
// snapshots and inspection output use.
func (t *Table[V]) SortedKeys() []uint32 {
	ks := make([]uint32, 0, t.used)
	for i := range t.slots {
		if t.slots[i].live {
			ks = append(ks, t.slots[i].block)
		}
	}
	slices.Sort(ks)
	return ks
}

// ForEach calls fn for every entry, in slot order.
func (t *Table[V]) ForEach(fn func(block uint32, v V)) {
	for i := range t.slots {
		if t.slots[i].live {
			fn(t.slots[i].block, t.slots[i].val)
		}
	}
}
