package cache

// A differential test of the flat cache against the plain
// array-of-structs cache it replaced: the same random operation
// sequence must leave both with identical return values, statistics and
// slot dumps — slot positions, LRU stamps, and the stale tags Invalid
// slots keep, all of which checkpoint images record.

import (
	"math/rand"
	"testing"
)

type modelLine struct {
	block uint32
	state State
	dirty bool
	lru   uint64
}

type modelCache struct {
	sets  [][]modelLine
	clock uint64

	Hits, Misses, Evictions, Writebacks, Invalidations uint64
}

func newModel(cfg Config) *modelCache {
	sets := make([][]modelLine, int(cfg.SizeBytes/cfg.BlockBytes)/cfg.Assoc)
	for i := range sets {
		sets[i] = make([]modelLine, cfg.Assoc)
	}
	return &modelCache{sets: sets}
}

func (c *modelCache) set(block uint32) []modelLine { return c.sets[block%uint32(len(c.sets))] }

func (c *modelCache) find(block uint32) *modelLine {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

func (c *modelCache) Lookup(block uint32) (State, bool) {
	if l := c.find(block); l != nil {
		c.clock++
		l.lru = c.clock
		c.Hits++
		return l.state, true
	}
	c.Misses++
	return Invalid, false
}

func (c *modelCache) Probe(block uint32) (State, bool) {
	if l := c.find(block); l != nil {
		return l.state, true
	}
	return Invalid, false
}

func (c *modelCache) MarkDirty(block uint32) {
	if l := c.find(block); l != nil {
		l.dirty = true
	}
}

func (c *modelCache) Dirty(block uint32) bool {
	l := c.find(block)
	return l != nil && l.dirty
}

func (c *modelCache) Insert(block uint32, st State) (Victim, bool) {
	if l := c.find(block); l != nil {
		l.state = st
		c.clock++
		l.lru = c.clock
		return Victim{}, false
	}
	set := c.set(block)
	vi := 0
	for i := range set {
		if set[i].state == Invalid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	var victim Victim
	evicted := set[vi].state != Invalid
	if evicted {
		victim = Victim{Block: set[vi].block, State: set[vi].state, Dirty: set[vi].dirty}
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	}
	c.clock++
	set[vi] = modelLine{block: block, state: st, lru: c.clock}
	return victim, evicted
}

func (c *modelCache) SetState(block uint32, st State) bool {
	l := c.find(block)
	if l == nil {
		return false
	}
	l.state = st
	if st != Exclusive {
		l.dirty = false
	}
	if st == Invalid {
		c.Invalidations++
	}
	return true
}

func (c *modelCache) Invalidate(block uint32) (wasDirty, wasPresent bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	wasDirty = l.dirty
	l.state = Invalid
	l.dirty = false
	c.Invalidations++
	return wasDirty, true
}

type slotDump struct {
	set, way int
	block    uint32
	st       State
	dirty    bool
	lru      uint64
}

func dumpFlat(c *Cache) []slotDump {
	var out []slotDump
	c.DumpSlots(func(set, way int, block uint32, st State, dirty bool, lru uint64) {
		out = append(out, slotDump{set, way, block, st, dirty, lru})
	})
	return out
}

func dumpModel(c *modelCache) []slotDump {
	var out []slotDump
	for si, set := range c.sets {
		for wi, l := range set {
			out = append(out, slotDump{si, wi, l.block, l.state, l.dirty, l.lru})
		}
	}
	return out
}

func TestCacheModelDifferential(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 1024, BlockBytes: 16, Assoc: 4}, // 16 sets: masked index
		{SizeBytes: 960, BlockBytes: 16, Assoc: 4},  // 15 sets: modulo index
		{SizeBytes: 64, BlockBytes: 16, Assoc: 4},   // one set
		{SizeBytes: 96, BlockBytes: 16, Assoc: 1},   // direct-mapped, 6 sets
	}
	for _, cfg := range cfgs {
		stale := 0
		for seed := int64(1); seed <= 5; seed++ {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := newModel(cfg)
			sets, ways := c.Geometry()
			if sets != len(m.sets) || ways != cfg.Assoc {
				t.Fatalf("%+v: geometry %dx%d, want %dx%d", cfg, sets, ways, len(m.sets), cfg.Assoc)
			}
			rng := rand.New(rand.NewSource(seed))
			// Twice as many distinct blocks as slots: plenty of hits,
			// conflicts and evictions.
			span := uint32(2 * sets * ways)
			for step := 0; step < 20000; step++ {
				b := uint32(rng.Intn(int(span)))
				st := State(1 + rng.Intn(2))
				var got, want any
				switch op := rng.Intn(7); op {
				case 0:
					s1, h1 := c.Lookup(b)
					s2, h2 := m.Lookup(b)
					got, want = [2]any{s1, h1}, [2]any{s2, h2}
				case 1:
					s1, h1 := c.Probe(b)
					s2, h2 := m.Probe(b)
					got, want = [2]any{s1, h1}, [2]any{s2, h2}
				case 2:
					v1, e1 := c.Insert(b, st)
					v2, e2 := m.Insert(b, st)
					got, want = [2]any{v1, e1}, [2]any{v2, e2}
				case 3:
					if rng.Intn(4) == 0 {
						st = Invalid
					}
					got, want = c.SetState(b, st), m.SetState(b, st)
				case 4:
					d1, p1 := c.Invalidate(b)
					d2, p2 := m.Invalidate(b)
					got, want = [2]bool{d1, p1}, [2]bool{d2, p2}
				case 5:
					c.MarkDirty(b)
					m.MarkDirty(b)
					got, want = c.Dirty(b), m.Dirty(b)
				case 6:
					got, want = c.Dirty(b), m.Dirty(b)
				}
				if got != want {
					t.Fatalf("%+v seed %d step %d block %d: flat %v, model %v", cfg, seed, step, b, got, want)
				}
			}
			if c.Hits != m.Hits || c.Misses != m.Misses || c.Evictions != m.Evictions ||
				c.Writebacks != m.Writebacks || c.Invalidations != m.Invalidations || c.Clock() != m.clock {
				t.Fatalf("%+v seed %d: stats diverge: flat %d/%d/%d/%d/%d clock %d, model %d/%d/%d/%d/%d clock %d",
					cfg, seed, c.Hits, c.Misses, c.Evictions, c.Writebacks, c.Invalidations, c.Clock(),
					m.Hits, m.Misses, m.Evictions, m.Writebacks, m.Invalidations, m.clock)
			}
			fd, md := dumpFlat(c), dumpModel(m)
			for i := range fd {
				if fd[i] != md[i] {
					t.Fatalf("%+v seed %d: slot %d: flat %+v, model %+v", cfg, seed, i, fd[i], md[i])
				}
				if fd[i].st == Invalid && fd[i].lru != 0 {
					stale++
				}
			}
		}
		if stale == 0 {
			t.Errorf("%+v: no Invalid slot kept a stale tag; the dump comparison missed that case", cfg)
		}
	}
}

// TestCacheModelSetSlotRoundTrip restores a dump into a fresh cache
// slot by slot and requires the identical dump back.
func TestCacheModelSetSlotRoundTrip(t *testing.T) {
	cfg := Config{SizeBytes: 960, BlockBytes: 16, Assoc: 4}
	c, _ := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		b := uint32(rng.Intn(200))
		c.Insert(b, State(1+rng.Intn(2)))
		if rng.Intn(3) == 0 {
			c.MarkDirty(b)
		}
		if rng.Intn(5) == 0 {
			c.Invalidate(uint32(rng.Intn(200)))
		}
	}
	d, _ := New(cfg)
	for _, s := range dumpFlat(c) {
		if err := d.SetSlot(s.set, s.way, s.block, s.st, s.dirty, s.lru); err != nil {
			t.Fatal(err)
		}
	}
	a, b := dumpFlat(c), dumpFlat(d)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d: restored %+v, want %+v", i, b[i], a[i])
		}
	}
}

// TestCacheModelNewAllocs pins construction to a constant number of
// allocations, whatever the set count: the slot arrays are flat.
func TestCacheModelNewAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 64, BlockBytes: 16, Assoc: 4},
		DefaultConfig(),
		{SizeBytes: 1 << 20, BlockBytes: 16, Assoc: 2},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > 4 {
			t.Errorf("New(%+v) makes %v allocations, want at most 4", cfg, n)
		}
	}
}
