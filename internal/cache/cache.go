// Package cache implements the per-node cache of an ALEWIFE node. The
// simulator separates timing state from data: the cache tracks which
// blocks are present and with what permissions (the coherence protocol
// serializes writers, so values can live in the flat functional memory),
// which is the same structure as the paper's cache simulator driving a
// functional interpreter (Figure 4).
package cache

import "fmt"

// State is a block's local coherence state.
type State uint8

const (
	Invalid   State = iota
	Shared          // read-only copy
	Exclusive       // sole read-write copy
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return "?"
}

// Config sizes the cache. Table 4 defaults: 64 KB, 16-byte blocks.
type Config struct {
	SizeBytes  uint32
	BlockBytes uint32
	Assoc      int
}

// DefaultConfig is the Table 4 cache.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 << 10, BlockBytes: 16, Assoc: 4}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.BlockBytes == 0 || c.SizeBytes%c.BlockBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.SizeBytes, c.BlockBytes)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d", c.Assoc)
	}
	blocks := c.SizeBytes / c.BlockBytes
	if blocks%uint32(c.Assoc) != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, c.Assoc)
	}
	if blocks == 0 {
		return fmt.Errorf("cache: size %d holds no blocks", c.SizeBytes)
	}
	return nil
}

// A slot's meta byte packs its State (the low bits) with its dirty
// bit. The slot holds a block iff its state bits are nonzero.
const dirtyBit uint8 = 0x80

// Cache is a set-associative cache indexed by block number. Slots are
// stored flat in (set, way) order as parallel tag, meta and lru arrays,
// so a set's tags are adjacent in memory and one probe finds a block.
// An Invalid slot keeps its last tag (snapshots record it).
type Cache struct {
	cfg   Config
	ways  int
	nsets uint32
	pow2  bool // nsets is a power of two: index sets with a mask
	tags  []uint32
	meta  []uint8 // State | dirtyBit
	lru   []uint64
	clock uint64

	// Stats.
	Hits, Misses, Evictions, Writebacks, Invalidations uint64
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := int(cfg.SizeBytes / cfg.BlockBytes)
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Assoc,
		nsets: uint32(slots / cfg.Assoc),
		tags:  make([]uint32, slots),
		meta:  make([]uint8, slots),
		lru:   make([]uint64, slots),
	}
	c.pow2 = c.nsets&(c.nsets-1) == 0
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Block maps a byte address to its block number.
func (c *Cache) Block(addr uint32) uint32 { return addr / c.cfg.BlockBytes }

// setStart is the slot index of block's set's first way.
func (c *Cache) setStart(block uint32) int {
	if c.pow2 {
		return int(block&(c.nsets-1)) * c.ways
	}
	return int(block%c.nsets) * c.ways
}

// ProbeSlot finds block without touching LRU or stats, returning its
// slot index and state, or -1 and Invalid when it is not cached. The
// index stays valid until the next Insert.
func (c *Cache) ProbeSlot(block uint32) (int, State) {
	start := c.setStart(block)
	for i := start; i < start+c.ways; i++ {
		if c.tags[i] == block && c.meta[i]&^dirtyBit != 0 {
			return i, State(c.meta[i] &^ dirtyBit)
		}
	}
	return -1, Invalid
}

// LookupSlot is Lookup returning the hit's slot index (-1 on a miss).
func (c *Cache) LookupSlot(block uint32) (int, State) {
	i, st := c.ProbeSlot(block)
	if i < 0 {
		c.Misses++
		return -1, Invalid
	}
	c.HitSlot(i)
	return i, st
}

// HitSlot counts a hit on slot i and touches its LRU stamp: the hit
// half of Lookup, for a slot ProbeSlot found.
func (c *Cache) HitSlot(i int) {
	c.clock++
	c.lru[i] = c.clock
	c.Hits++
}

// MarkDirtySlot notes that the (exclusive) block in slot i was written.
func (c *Cache) MarkDirtySlot(i int) { c.meta[i] |= dirtyBit }

// Lookup returns the block's state, touching LRU on a hit.
func (c *Cache) Lookup(block uint32) (State, bool) {
	i, st := c.LookupSlot(block)
	return st, i >= 0
}

// Probe reads the state without touching LRU or stats.
func (c *Cache) Probe(block uint32) (State, bool) {
	i, st := c.ProbeSlot(block)
	return st, i >= 0
}

// MarkDirty notes that the (exclusive) block was written.
func (c *Cache) MarkDirty(block uint32) {
	if i, _ := c.ProbeSlot(block); i >= 0 {
		c.MarkDirtySlot(i)
	}
}

// Dirty reports whether a cached block is dirty.
func (c *Cache) Dirty(block uint32) bool {
	i, _ := c.ProbeSlot(block)
	return i >= 0 && c.meta[i]&dirtyBit != 0
}

// Victim describes an evicted block.
type Victim struct {
	Block uint32
	State State
	Dirty bool
}

// Insert installs block with the given state, returning the evicted
// victim if the set was full.
func (c *Cache) Insert(block uint32, st State) (Victim, bool) {
	c.clock++
	if i, _ := c.ProbeSlot(block); i >= 0 {
		// Upgrade/downgrade in place.
		c.meta[i] = uint8(st) | c.meta[i]&dirtyBit
		c.lru[i] = c.clock
		return Victim{}, false
	}
	start := c.setStart(block)
	vi := start
	for i := start; i < start+c.ways; i++ {
		if c.meta[i]&^dirtyBit == 0 {
			vi = i
			break
		}
		if c.lru[i] < c.lru[vi] {
			vi = i
		}
	}
	var victim Victim
	evicted := c.meta[vi]&^dirtyBit != 0
	if evicted {
		victim = Victim{Block: c.tags[vi], State: State(c.meta[vi] &^ dirtyBit), Dirty: c.meta[vi]&dirtyBit != 0}
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	}
	c.tags[vi], c.meta[vi], c.lru[vi] = block, uint8(st), c.clock
	return victim, evicted
}

// SetState changes a cached block's state (downgrades clear dirty).
func (c *Cache) SetState(block uint32, st State) bool {
	i, _ := c.ProbeSlot(block)
	if i < 0 {
		return false
	}
	if st == Exclusive {
		c.meta[i] = uint8(st) | c.meta[i]&dirtyBit
	} else {
		c.meta[i] = uint8(st)
	}
	if st == Invalid {
		c.Invalidations++
	}
	return true
}

// Invalidate removes a block, reporting whether it was present and
// dirty.
func (c *Cache) Invalidate(block uint32) (wasDirty, wasPresent bool) {
	i, _ := c.ProbeSlot(block)
	if i < 0 {
		return false, false
	}
	wasDirty = c.meta[i]&dirtyBit != 0
	c.meta[i] = 0
	c.Invalidations++
	return wasDirty, true
}

// Occupancy counts valid lines (for interference studies).
func (c *Cache) Occupancy() int {
	n := 0
	for _, m := range c.meta {
		if m&^dirtyBit != 0 {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid line, in set order. Cold path: the
// fault checker's coherence audits iterate whole caches with it.
func (c *Cache) ForEach(fn func(block uint32, st State, dirty bool)) {
	for i, m := range c.meta {
		if m&^dirtyBit != 0 {
			fn(c.tags[i], State(m&^dirtyBit), m&dirtyBit != 0)
		}
	}
}

// MissRatio is misses / (hits + misses).
func (c *Cache) MissRatio() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}
