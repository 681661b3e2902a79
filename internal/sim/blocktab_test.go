package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBlockTableMatchesMap drives a block table and a Go map through
// the same random puts and deletes. Keys come from a small range, so
// probe runs collide, wrap past the table's end and get shifted back by
// deletions; every entry must stay reachable after each step.
func TestBlockTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab blockTable[uint64]
		ref := map[uint32]uint64{}
		keys := uint32(4 + rng.Intn(60))
		for step := 0; step < 3000; step++ {
			k := uint32(rng.Intn(int(keys)))
			if rng.Intn(3) == 0 {
				tab.del(k)
				delete(ref, k)
			} else {
				v := rng.Uint64()
				tab.put(k, v)
				ref[k] = v
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, tab.len(), len(ref))
			}
			for k := uint32(0); k < keys; k++ {
				got, ok := tab.get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: get(%d) = %d,%v, want %d,%v", seed, step, k, got, ok, want, wok)
				}
			}
		}
		want := make([]uint32, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)
		if got := tab.sortedKeys(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: sortedKeys = %v, want %v", seed, got, want)
		}
		tab.reset()
		if tab.len() != 0 || (len(want) > 0 && tab.has(want[0])) {
			t.Fatalf("seed %d: reset left entries", seed)
		}
	}
}

// TestBlockTableAllocFree pins the controller's steady state: once the
// table has grown to its working set, inserting and deleting entries
// allocates nothing.
func TestBlockTableAllocFree(t *testing.T) {
	var tab blockTable[missState]
	for k := uint32(0); k < 16; k++ {
		tab.put(k, missState{})
	}
	for k := uint32(0); k < 16; k++ {
		tab.del(k)
	}
	next := uint32(0)
	cycle := func() {
		for i := uint32(0); i < 16; i++ {
			tab.put(next+i, missState{start: uint64(i)})
		}
		for i := uint32(0); i < 16; i++ {
			tab.del(next + i)
		}
		next += 16
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("block table put/del allocates %v/op, want 0", n)
	}
}
