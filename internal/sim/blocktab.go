package sim

import "slices"

// blockTable maps block numbers to a controller's per-block state
// (outstanding misses, home transactions, first-use interlocks). It is
// the directory's inline open-addressed table (linear probing,
// power-of-two size, Fibonacci hashing) plus deletion: these entries
// come and go with every transaction, so removal shifts the probe run
// back instead of leaving tombstones. Lookups are an array index, and
// once the table has grown to the controller's working set, inserts
// and deletes allocate nothing.
type blockTable[V any] struct {
	slots []blockSlot[V] // power-of-two length
	shift uint           // 32 - log2(len(slots))
	used  int
}

type blockSlot[V any] struct {
	block uint32
	live  bool
	val   V
}

const blockTableMin = 8

func (t *blockTable[V]) alloc(n int) {
	t.slots = make([]blockSlot[V], n)
	t.shift = 32
	for m := n; m > 1; m >>= 1 {
		t.shift--
	}
}

// home is block's preferred slot.
func (t *blockTable[V]) home(block uint32) uint32 {
	return (block * 2654435761) >> t.shift
}

// find returns the index of block's live slot, or -1.
func (t *blockTable[V]) find(block uint32) int {
	if t.used == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(block); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.live {
			return -1
		}
		if s.block == block {
			return int(i)
		}
	}
}

// len counts live entries.
func (t *blockTable[V]) len() int { return t.used }

// get returns block's value.
func (t *blockTable[V]) get(block uint32) (V, bool) {
	if i := t.find(block); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// has reports whether block has an entry.
func (t *blockTable[V]) has(block uint32) bool { return t.find(block) >= 0 }

// put sets block's value, inserting it if absent.
func (t *blockTable[V]) put(block uint32, v V) {
	if (t.used+1)*4 > len(t.slots)*3 { // keep load below 3/4
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := t.home(block)
	for t.slots[i].live && t.slots[i].block != block {
		i = (i + 1) & mask
	}
	s := &t.slots[i]
	if !s.live {
		s.live, s.block = true, block
		t.used++
	}
	s.val = v
}

func (t *blockTable[V]) grow() {
	old := t.slots
	t.alloc(max(blockTableMin, 2*len(old)))
	t.used = 0
	for i := range old {
		if old[i].live {
			t.put(old[i].block, old[i].val)
		}
	}
}

// del removes block's entry, if any.
func (t *blockTable[V]) del(block uint32) {
	if i := t.find(block); i >= 0 {
		t.deleteAt(i)
	}
}

// deleteAt removes the live entry in slot i, shifting later members of
// its probe run back so every remaining entry stays reachable from its
// home slot.
func (t *blockTable[V]) deleteAt(i int) {
	mask := len(t.slots) - 1
	t.used--
	for {
		t.slots[i] = blockSlot[V]{}
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

// reset empties the table, keeping its storage.
func (t *blockTable[V]) reset() {
	clear(t.slots)
	t.used = 0
}

// sortedKeys returns the live blocks ascending: the deterministic order
// snapshots encode controller state in.
func (t *blockTable[V]) sortedKeys() []uint32 {
	ks := make([]uint32, 0, t.used)
	for i := range t.slots {
		if t.slots[i].live {
			ks = append(ks, t.slots[i].block)
		}
	}
	slices.Sort(ks)
	return ks
}

// forEach calls fn for every entry, in slot order.
func (t *blockTable[V]) forEach(fn func(block uint32, v V)) {
	for i := range t.slots {
		if t.slots[i].live {
			fn(t.slots[i].block, t.slots[i].val)
		}
	}
}
