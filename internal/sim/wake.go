package sim

import "math/bits"

// wakeQueue schedules sleeping nodes' wake-ups by absolute simulated
// cycle. Together with the machine's sorted running list (nodes
// executing 1-cycle instructions, which step every cycle and never
// touch the queue) it replaces the per-node relative busy counters the
// lockstep loop used to decrement every cycle — the loop visits only
// the nodes that actually step, so the host cost of a simulated cycle
// is proportional to the work done in it, not to the machine size.
//
// The queue is a timing wheel: wheelSlots slots, one per cycle of the
// window [base, base+wheelSlots), each a bitmap of the nodes waking on
// that cycle, plus an occupied-slot summary bitmap. Simulated sleeps
// are short (the 11-cycle context switch, the run-time system's 4-cycle
// idle poll, memory latencies of tens of cycles), so push, next and
// popDue are a few word operations each, independent of how many nodes
// sleep. A wake at or beyond the window's end goes to the small far
// heap and moves into the wheel once the window reaches it.
//
// Determinism: popDue reads a slot's bitmap from the lowest bit up, so
// it yields due nodes in ascending id order, and the run loop never
// lets simulated time pass a scheduled wake (it steps cycle by cycle
// once next() == now) — exactly the order the reference loop steps
// them in.
//
// All pushes happen on the coordinator goroutine (the sharded loop
// merges its workers' wakes there), so the queue needs no locking.
type wakeQueue struct {
	// base is the cycle the window starts at: every wheel entry wakes
	// in [base, base+wheelSlots), on slot wake&wheelMask. It advances
	// only in popDue.
	base  uint64
	words int      // bitmap words per slot, ceil(nodes/64)
	slots []uint64 // wheelSlots bitmaps of words words each
	occ   [wheelSlots / 64]uint64
	far   []wakeEntry // min-heap of wakes beyond the window
}

const (
	wheelSlots = 256 // a power of two above the longest common sleep
	wheelMask  = wheelSlots - 1
)

type wakeEntry struct {
	wake uint64
	node int32
}

// noWake is next()'s empty-queue sentinel (matches network.NoEvent).
const noWake = ^uint64(0)

// init empties the queue, sizing the slot bitmaps for nodes.
func (q *wakeQueue) init(nodes int) {
	q.base = 0
	q.words = (nodes + 63) / 64
	q.slots = make([]uint64, wheelSlots*q.words)
	q.occ = [wheelSlots / 64]uint64{}
	q.far = q.far[:0]
}

// next reports the earliest scheduled wake cycle, or noWake when no
// node sleeps.
func (q *wakeQueue) next() uint64 {
	next := noWake
	if s, ok := q.firstSlot(); ok {
		next = q.slotCycle(s)
	}
	if len(q.far) > 0 && q.far[0].wake < next {
		next = q.far[0].wake
	}
	return next
}

// firstSlot returns the occupied slot nearest the window start.
func (q *wakeQueue) firstSlot() (int, bool) {
	start := int(q.base & wheelMask)
	w0 := start >> 6
	if b := q.occ[w0] >> (start & 63); b != 0 {
		return start + bits.TrailingZeros64(b), true
	}
	// The remaining words in window order; the last pass revisits w0
	// whole, whose low bits are the window's wrapped-around tail.
	for i := 1; i <= len(q.occ); i++ {
		w := (w0 + i) % len(q.occ)
		if q.occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(q.occ[w]), true
		}
	}
	return 0, false
}

// slotCycle is the cycle slot s stands for in the current window.
func (q *wakeQueue) slotCycle(s int) uint64 {
	return q.base + (uint64(s)-q.base)&wheelMask
}

// push schedules node to wake at the given cycle. A node is scheduled
// at most once at a time.
func (q *wakeQueue) push(node int, wake uint64) {
	// A wake before base wraps to a huge offset and lands in the far
	// heap, where popDue's past-entry check catches it.
	if wake-q.base >= wheelSlots {
		q.pushFar(wakeEntry{wake: wake, node: int32(node)})
		return
	}
	q.set(int(wake&wheelMask), node)
}

func (q *wakeQueue) set(s, node int) {
	q.slots[s*q.words+node>>6] |= 1 << (node & 63)
	q.occ[s>>6] |= 1 << (s & 63)
}

// popDue removes every node due at exactly cycle now and appends their
// ids to buf (in ascending id order). A wake earlier than now would
// mean the run loop skipped a scheduled step — a determinism bug — so
// it panics loudly instead of silently reordering.
func (q *wakeQueue) popDue(now uint64, buf []int) []int {
	if q.next() < now {
		panic("sim: wake queue entry in the past (missed node step)")
	}
	q.base = now
	for len(q.far) > 0 && q.far[0].wake-now < wheelSlots {
		e := q.popFar()
		q.set(int(e.wake&wheelMask), int(e.node))
	}
	s := int(now & wheelMask)
	if q.occ[s>>6]&(1<<(s&63)) == 0 {
		return buf
	}
	q.occ[s>>6] &^= 1 << (s & 63)
	row := q.slots[s*q.words : (s+1)*q.words]
	for wi, w := range row {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, wi<<6|bits.TrailingZeros64(w))
		}
		row[wi] = 0
	}
	return buf
}

// forEach calls fn for every scheduled wake, in no particular order.
func (q *wakeQueue) forEach(fn func(node int, wake uint64)) {
	for s := 0; s < wheelSlots; s++ {
		if q.occ[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		wake := q.slotCycle(s)
		for wi, w := range q.slots[s*q.words : (s+1)*q.words] {
			for ; w != 0; w &= w - 1 {
				fn(wi<<6|bits.TrailingZeros64(w), wake)
			}
		}
	}
	for _, e := range q.far {
		fn(int(e.node), e.wake)
	}
}

// mergeSorted appends the merge of two ascending, disjoint id lists to
// dst (which must not alias a or b).
func mergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

func (e wakeEntry) less(o wakeEntry) bool {
	return e.wake < o.wake || (e.wake == o.wake && e.node < o.node)
}

func (q *wakeQueue) pushFar(e wakeEntry) {
	q.far = append(q.far, e)
	i := len(q.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.far[i].less(q.far[parent]) {
			break
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *wakeQueue) popFar() wakeEntry {
	top := q.far[0]
	last := len(q.far) - 1
	q.far[0] = q.far[last]
	q.far = q.far[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.far) && q.far[l].less(q.far[small]) {
			small = l
		}
		if r < len(q.far) && q.far[r].less(q.far[small]) {
			small = r
		}
		if small == i {
			return top
		}
		q.far[i], q.far[small] = q.far[small], q.far[i]
		i = small
	}
}
