// Package cache implements the mobile client's buffer pool: a fixed
// capacity LRU cache of data items (paper §4: "Cached data items are
// managed using an LRU replacement policy"). Each entry carries the
// timestamp of the version it holds, which the timestamp-based
// invalidation algorithms compare against report entries.
package cache

// Entry is one cached item.
type Entry struct {
	ID int32
	// TS is the validity timestamp of the cached copy: the item's
	// last-update time when it was fetched, advanced to the report time
	// each time a report confirms the copy (Figure 1's "tc <- Ti").
	TS float64
	// Version identifies the cached copy for the simulator's consistency
	// checker; it plays no role in the protocols themselves.
	Version int32
}

const nilSlot = int32(-1)

// slot is one cache slot: the entry fields plus the intrusive LRU links.
type slot struct {
	id         int32
	ver        int32
	ts         float64
	prev, next int32
}

// Cache is a client's buffer pool: a fixed-capacity LRU over the item-id
// space [0, items), with presence tracked in a bitmap — one bit per
// database item — and entry metadata (timestamp, version, LRU links) in a
// small slot array, in the spirit of the compact cache-indicator
// representations of Cohen–Einziger–Scalosub (arXiv:2104.01386).
// Membership tests are one bit probe; the slot walk on a hit is bounded
// by the capacity, which is small by construction (BufferPct · DBSize).
// FuzzCache pins LRU order, hit/miss accounting, entry contents and
// Reload panics against a map-indexed reference LRU.
//
// The zero value is unusable; call New, or NewSet to carve many caches
// from shared arenas.
type Cache struct {
	capacity int
	bits     []uint64 // presence, one bit per item id
	slots    []slot
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used

	hits, misses int64
}

// New creates a standalone cache holding at most capacity of the items
// item ids (capacity >= 1, items >= 1).
func New(capacity, items int) *Cache { return &NewSet(1, capacity, items)[0] }

// NewSet creates n caches like New, carving all of them from three shared
// arenas — presence bitmaps, slots, free stacks — so a million caches
// cost four allocations.
func NewSet(n, capacity, items int) []Cache {
	if capacity < 1 {
		panic("cache: capacity must be at least 1")
	}
	if items < 1 {
		panic("cache: item space must be at least 1")
	}
	words := (items + 63) / 64
	bits := make([]uint64, words*n)
	slots := make([]slot, capacity*n)
	free := make([]int32, capacity*n)
	cs := make([]Cache, n)
	for i := range cs {
		c := &cs[i]
		c.capacity = capacity
		c.bits = bits[i*words : (i+1)*words]
		c.slots = slots[i*capacity : (i+1)*capacity]
		// Three-index slice: the free stack must never grow past its
		// carve-out into the neighbour's.
		c.free = free[i*capacity : i*capacity : (i+1)*capacity]
		c.resetSlots()
	}
	return cs
}

// resetSlots empties the slot structure without touching statistics. The
// free stack is rebuilt high-to-low so pops hand out ascending slot
// numbers.
func (c *Cache) resetSlots() {
	c.free = c.free[:0]
	for i := c.capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	c.head, c.tail = nilSlot, nilSlot
}

// Len reports the number of cached items.
func (c *Cache) Len() int { return c.capacity - len(c.free) }

// Hits and Misses report Lookup outcomes.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// present is the bitmap probe: one load, one mask.
//
// Hot path: the negative-lookup fast path of every report application and
// query scan; a single bit test, no allocation.
//
//mobicache:hot
func (c *Cache) present(id int32) bool {
	return c.bits[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

func (c *Cache) setBit(id int32)   { c.bits[uint32(id)>>6] |= 1 << (uint32(id) & 63) }
func (c *Cache) clearBit(id int32) { c.bits[uint32(id)>>6] &^= 1 << (uint32(id) & 63) }

// slotOf finds the slot holding id by walking the recency list. Callers
// probe the bitmap first, so the walk only runs when the id is present;
// it is bounded by the (small) capacity.
//
// Hot path: bounded linear walk, no allocation.
//
//mobicache:hot
func (c *Cache) slotOf(id int32) int32 {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		if c.slots[s].id == id {
			return s
		}
	}
	panic("cache: bitmap/slot divergence")
}

// Hot path: list surgery only.
//
//mobicache:hot
func (c *Cache) unlink(s int32) {
	e := &c.slots[s]
	if e.prev != nilSlot {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilSlot {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nilSlot, nilSlot
}

// Hot path: list surgery only.
//
//mobicache:hot
func (c *Cache) pushFront(s int32) {
	e := &c.slots[s]
	e.prev = nilSlot
	e.next = c.head
	if c.head != nilSlot {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail == nilSlot {
		c.tail = s
	}
}

// entryAt materializes the slot as an Entry value.
func (c *Cache) entryAt(s int32) Entry {
	e := &c.slots[s]
	return Entry{ID: e.id, TS: e.ts, Version: e.ver}
}

// Lookup finds id, promoting it to most recently used on a hit, and
// records the hit or miss.
//
// Hot path: every queried item passes through here; the Entry return value
// is a small struct handed back on the stack.
//
//mobicache:hot
func (c *Cache) Lookup(id int32) (Entry, bool) {
	if !c.present(id) {
		c.misses++
		//lint:allow hotalloc the zero Entry is returned by value on the stack
		return Entry{}, false
	}
	c.hits++
	s := c.slotOf(id)
	c.unlink(s)
	c.pushFront(s)
	return c.entryAt(s), true
}

// Peek finds id without promoting it or recording statistics.
//
// Hot path: report application probes every announced id through here.
//
//mobicache:hot
func (c *Cache) Peek(id int32) (Entry, bool) {
	if !c.present(id) {
		//lint:allow hotalloc the zero Entry is returned by value on the stack
		return Entry{}, false
	}
	return c.entryAt(c.slotOf(id)), true
}

// Put inserts or refreshes id with the given validity timestamp and
// version, making it most recently used and evicting the LRU entry when
// the cache is full.
//
// Hot path: every fetched item lands here; eviction reuses the tail slot, so
// steady-state inserts allocate nothing.
//
//mobicache:hot
func (c *Cache) Put(id int32, ts float64, version int32) {
	if c.present(id) {
		s := c.slotOf(id)
		c.slots[s].ts = ts
		c.slots[s].ver = version
		c.unlink(s)
		c.pushFront(s)
		return
	}
	var s int32
	if len(c.free) > 0 {
		s = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		s = c.tail
		c.clearBit(c.slots[s].id)
		c.unlink(s)
	}
	//lint:allow hotalloc slot assignment by composite literal writes in place; the backing array is preallocated
	c.slots[s] = slot{id: id, ts: ts, ver: version, prev: nilSlot, next: nilSlot}
	c.setBit(id)
	c.pushFront(s)
}

// TouchAll advances the validity timestamp of every entry.
//
// Hot path: the TS family stamps the whole cache on every confirming report.
//
//mobicache:hot
func (c *Cache) TouchAll(ts float64) {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.slots[s].ts = ts
	}
}

// Invalidate removes id if cached, reporting whether it was present.
//
// Hot path: every report entry naming a cached item passes through here; the
// freed slot returns to the stack in place.
//
//mobicache:hot
func (c *Cache) Invalidate(id int32) bool {
	if !c.present(id) {
		return false
	}
	s := c.slotOf(id)
	c.unlink(s)
	c.clearBit(id)
	//lint:allow hotalloc the free stack was built with the full capacity, so this append never grows it
	c.free = append(c.free, s)
	return true
}

// DropAll empties the cache (the client could not prove validity and must
// discard everything). The bitmap is cleared entry-by-entry off the
// recency list, so the cost scales with the occupancy, not the item
// space.
func (c *Cache) DropAll() {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.clearBit(c.slots[s].id)
	}
	c.resetSlots()
}

// Entries appends every cached entry, MRU first, to dst — the churn
// layer's snapshot encoder walks it into the persisted bitstream. Like
// IDs it allocates nothing beyond dst's growth, so callers reusing a
// scratch slice pay zero steady-state allocations.
func (c *Cache) Entries(dst []Entry) []Entry {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.entryAt(s))
	}
	return dst
}

// IDs appends all cached item ids, MRU first, to dst.
func (c *Cache) IDs(dst []int32) []int32 {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.slots[s].id)
	}
	return dst
}

// Reload replaces the cache contents with the given entries (MRU first),
// reinstating a decoded snapshot at warm restart. Unlike DropAll + Put it
// touches no statistics: a warm restore is a state transplant, not a
// sequence of insertions. Entries beyond the capacity or with duplicate
// ids are a caller bug (the snapshot codec rejects both) and panic.
func (c *Cache) Reload(entries []Entry) {
	if len(entries) > c.capacity {
		panic("cache: reload beyond capacity")
	}
	c.DropAll()
	// Insert LRU-first so the recency list ends MRU-first, matching the
	// order the snapshot recorded.
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if c.present(e.ID) {
			panic("cache: duplicate id in reload")
		}
		s := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.slots[s] = slot{id: e.ID, ts: e.TS, ver: e.Version, prev: nilSlot, next: nilSlot}
		c.setBit(e.ID)
		c.pushFront(s)
	}
}

// ResetStats zeroes the hit and miss counters (measurement warmup); cache
// contents are untouched.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
