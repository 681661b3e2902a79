package directory

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBlockTableMatchesMap drives a Table and a Go map through
// the same random puts and deletes. Keys come from a small range, so
// probe runs collide, wrap past the table's end and get shifted back by
// deletions; every entry must stay reachable after each step.
func TestBlockTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[uint64]
		ref := map[uint32]uint64{}
		keys := uint32(4 + rng.Intn(60))
		for step := 0; step < 3000; step++ {
			k := uint32(rng.Intn(int(keys)))
			if rng.Intn(3) == 0 {
				tab.Del(k)
				delete(ref, k)
			} else {
				v := rng.Uint64()
				tab.Put(k, v)
				ref[k] = v
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, tab.Len(), len(ref))
			}
			for k := uint32(0); k < keys; k++ {
				got, ok := tab.Get(k)
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
		if got := tab.SortedKeys(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: sortedKeys = %v, want %v", seed, got, want)
		}
		tab.Reset()
		if tab.Len() != 0 || (len(want) > 0 && tab.Has(want[0])) {
			t.Fatalf("seed %d: reset left entries", seed)
		}
	}
}

// TestBlockTableAllocFree pins the cache controllers' steady state:
// once the table has grown to its working set, inserting and deleting
// entries allocates nothing. The value is two words, like an
// outstanding-miss record.
func TestBlockTableAllocFree(t *testing.T) {
	type miss struct {
		start uint64
		write bool
	}
	var tab Table[miss]
	for k := uint32(0); k < 16; k++ {
		tab.Put(k, miss{})
	}
	for k := uint32(0); k < 16; k++ {
		tab.Del(k)
	}
	next := uint32(0)
	cycle := func() {
		for i := uint32(0); i < 16; i++ {
			tab.Put(next+i, miss{start: uint64(i)})
		}
		for i := uint32(0); i < 16; i++ {
			tab.Del(next + i)
		}
		next += 16
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("block table put/del allocates %v/op, want 0", n)
	}
}
