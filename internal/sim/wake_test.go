package sim

// Tests of the timing-wheel wake queue: slot order, the far heap past
// the window, wrap-around, the snapshot canonicalization round trip,
// and a seeded random schedule checked against a plain binary heap.

import (
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestWakeWheelAscendingWithinSlot(t *testing.T) {
	const nodes = 200 // four bitmap words per slot
	var q wakeQueue
	q.init(nodes)
	ids := rand.New(rand.NewSource(1)).Perm(nodes)
	for _, id := range ids[:150] {
		q.push(id, 9)
	}
	for _, id := range ids[150:] {
		q.push(id, 10)
	}
	if got := q.next(); got != 9 {
		t.Fatalf("next() = %d, want 9", got)
	}
	want := slices.Clone(ids[:150])
	slices.Sort(want)
	if got := q.popDue(9, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("popDue(9) = %v, want %v", got, want)
	}
	want = slices.Clone(ids[150:])
	slices.Sort(want)
	if got := q.popDue(10, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("popDue(10) = %v, want %v", got, want)
	}
	if got := q.next(); got != noWake {
		t.Fatalf("next() = %d on an empty queue", got)
	}
}

func TestWakeWheelOverflow(t *testing.T) {
	var q wakeQueue
	q.init(4)
	q.push(0, 10_000) // far beyond the window
	q.push(1, wheelSlots)
	q.push(2, wheelSlots-1) // the window's last slot
	if len(q.far) != 2 {
		t.Fatalf("%d far entries, want 2", len(q.far))
	}
	for _, c := range []struct {
		at   uint64
		want []int
	}{{wheelSlots - 1, []int{2}}, {wheelSlots, []int{1}}, {10_000, []int{0}}} {
		if got := q.next(); got != c.at {
			t.Fatalf("next() = %d, want %d", got, c.at)
		}
		if got := q.popDue(c.at, nil); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("popDue(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	if len(q.far) != 0 || q.next() != noWake {
		t.Fatalf("queue not empty: far %v, next %d", q.far, q.next())
	}

	// A far wake and a wheel wake on the same cycle pop together, in
	// ascending id order.
	q.push(3, 20_000)
	q.popDue(19_900, nil)
	q.push(1, 20_000)
	if got := q.popDue(20_000, nil); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("popDue(20000) = %v, want [1 3]", got)
	}
}

func TestWakeWheelPastFarEntryPanics(t *testing.T) {
	var q wakeQueue
	q.init(2)
	q.popDue(1000, nil)
	q.push(0, 500) // before the window: lands in the far heap
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("popDue past a far wake did not panic")
		}
	}()
	q.popDue(1001, nil)
}

func TestWakeWheelWrapAround(t *testing.T) {
	// Three nodes sleep with periods that walk the window round many
	// times; every wake must come out on exactly its cycle.
	var q wakeQueue
	q.init(3)
	period := []uint64{4, 11, 101}
	for id, p := range period {
		q.push(id, p)
	}
	for now := uint64(0); now < 10*wheelSlots; now++ {
		if q.next() > now {
			continue
		}
		for _, id := range q.popDue(now, nil) {
			if now%period[id] != 0 {
				t.Fatalf("node %d woke at %d, period %d", id, now, period[id])
			}
			q.push(id, now+period[id])
		}
	}
	for id, p := range period {
		found := false
		q.forEach(func(node int, wake uint64) {
			if node == id {
				found = true
				if wake%p != 0 || wake < 10*wheelSlots {
					t.Errorf("node %d scheduled at %d", id, wake)
				}
			}
		})
		if !found {
			t.Errorf("node %d lost", id)
		}
	}
}

func TestWakeWheelBusyRemainingRoundTrip(t *testing.T) {
	m := ffTestMachine(t, 6)
	m.now = 1000
	m.running = []int{1, 4}
	m.wakeq.init(6)
	m.wakeq.popDue(990, nil) // a stale window start, as between pops
	m.wakeq.push(0, 1004)
	m.wakeq.push(2, 1011)
	m.wakeq.push(3, 1300) // beyond the window: far heap
	m.wakeq.push(5, 1004)
	rem := m.busyRemaining()
	if want := []uint64{4, 0, 11, 300, 0, 4}; !reflect.DeepEqual(rem, want) {
		t.Fatalf("busyRemaining = %v, want %v", rem, want)
	}

	m2 := ffTestMachine(t, 6)
	m2.now = 1000
	m2.rebuildRunLists(rem)
	if !reflect.DeepEqual(m2.running, m.running) {
		t.Fatalf("running = %v, want %v", m2.running, m.running)
	}
	if got := m2.busyRemaining(); !reflect.DeepEqual(got, rem) {
		t.Fatalf("round trip busyRemaining = %v, want %v", got, rem)
	}
	for _, c := range []struct {
		at   uint64
		want []int
	}{{1004, []int{0, 5}}, {1011, []int{2}}, {1300, []int{3}}} {
		if got := m2.wakeq.next(); got != c.at {
			t.Fatalf("next() = %d, want %d", got, c.at)
		}
		if got := m2.wakeq.popDue(c.at, nil); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("popDue(%d) = %v, want %v", c.at, got, c.want)
		}
	}
}

// refHeap is a plain binary min-heap of (wake, node), ties by node id:
// the reference the wheel's schedule is checked against.
type refHeap []wakeEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(wakeEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func TestWakeWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(300)
		var q wakeQueue
		q.init(nodes)
		var ref refHeap
		sleep := func() uint64 {
			switch r := rng.Intn(100); {
			case r < 60:
				return 4
			case r < 85:
				return 2 + uint64(rng.Intn(120))
			case r < 97:
				return 200 + uint64(rng.Intn(100)) // around the window edge
			default:
				return 300 + uint64(rng.Intn(5000)) // far heap
			}
		}
		now := uint64(rng.Intn(1000))
		for id := 0; id < nodes; id++ {
			w := now + sleep()
			q.push(id, w)
			heap.Push(&ref, wakeEntry{wake: w, node: int32(id)})
		}
		for step := 0; step < 5000; step++ {
			want := noWake
			if len(ref) > 0 {
				want = ref[0].wake
			}
			if got := q.next(); got != want {
				t.Fatalf("seed %d step %d: next() = %d, want %d", seed, step, got, want)
			}
			// Advance like the run loop: either to the next wake or, as
			// when other nodes keep stepping, one cycle at a time.
			if rng.Intn(4) == 0 {
				now++
			} else {
				now = want
			}
			if q.next() > now {
				continue
			}
			var wantDue []int
			for len(ref) > 0 && ref[0].wake == now {
				wantDue = append(wantDue, int(heap.Pop(&ref).(wakeEntry).node))
			}
			got := q.popDue(now, nil)
			if !reflect.DeepEqual(got, wantDue) {
				t.Fatalf("seed %d step %d: popDue(%d) = %v, want %v", seed, step, now, got, wantDue)
			}
			for _, id := range got {
				w := now + sleep()
				q.push(id, w)
				heap.Push(&ref, wakeEntry{wake: w, node: int32(id)})
			}
		}
	}
}

// TestWakeWheelAllocFree pins the steady-state cost of a sleep: a push
// and its popDue allocate nothing once the due buffer has capacity.
func TestWakeWheelAllocFree(t *testing.T) {
	var q wakeQueue
	q.init(256)
	buf := make([]int, 0, 256)
	now := uint64(0)
	for id := 0; id < 256; id++ {
		q.push(id, uint64(1+id%11))
	}
	cycle := func() {
		now++
		buf = q.popDue(now, buf[:0])
		for _, id := range buf {
			q.push(id, now+4+uint64(id%8))
		}
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("wake queue cycle allocates %v/op, want 0", n)
	}
}
