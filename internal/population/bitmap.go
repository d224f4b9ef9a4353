// Package population implements the mobile hosts of the simulation
// (paper §4) as one struct-of-arrays value. Each client runs a closed
// query loop: think (with disconnection chances), issue a read-only query
// over a few items, wait for the next invalidation report to validate the
// cache, answer cached items locally, fetch the rest over the shared
// uplink/downlink, and repeat. Reports are processed whenever the client
// is connected, independently of the query loop.
//
// Per-client lifecycle state (gap timers, sleep schedules, query cursors,
// fence/epoch gates, churn and offline flags) lives in flat slices, caches
// are versioned bitmaps over the N-item id space, and every suspension
// point of the query loop is an explicit continuation driven by kernel
// events. The package's contract is bit-identity with the
// process-per-client client it replaced: a run schedules the same kernel
// events in the same order, drawing the same random streams, so Results
// reproduce the digests recorded from that path (the digest tables under
// internal/engine/testdata and internal/multicell/testdata). No goroutine
// stacks, no channel handoffs, no per-client map allocations — a million
// clients fit in a few hundred bytes each. DESIGN.md §16 states the model.
package population

import "mobicache/internal/cache"

const nilSlot = int32(-1)

// bslot is one cache slot: the entry fields plus the intrusive LRU links.
type bslot struct {
	id         int32
	ver        int32
	ts         float64
	prev, next int32
}

// BitmapCache is a client's buffer pool: a fixed-capacity LRU
// over the item-id space [0, items), with presence tracked in a bitmap —
// one bit per database item — and entry metadata (timestamp, version, LRU
// links) in a small slot array, in the spirit of the compact
// cache-indicator representations of Cohen–Einziger–Scalosub
// (arXiv:2104.01386). Membership tests are one bit probe; the slot walk
// on a hit is bounded by the capacity, which is small by construction
// (BufferPct · DBSize). Observable behaviour — LRU order, eviction
// choice, hit/miss/eviction/invalidation/drop accounting, Reload panics —
// is identical to internal/cache's map-indexed implementation; the
// differential fuzz suite (FuzzBitmapCache) pins that equivalence. Both
// implement core.Cache, which is how the schemes stay unchanged.
//
// The zero value is unusable; call NewBitmapCache, or Init against
// arena-carved backing slices (how Population packs a million caches into
// three allocations).
type BitmapCache struct {
	capacity int
	items    int32
	bits     []uint64 // presence, one bit per item id
	slots    []bslot
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used

	hits, misses  int64
	evictions     int64
	invalidations int64
	drops         int64
}

// BitmapWords reports the presence-bitmap length in uint64 words for an
// item space of the given size — the arena sizing helper.
func BitmapWords(items int) int { return (items + 63) / 64 }

// NewBitmapCache creates a standalone cache holding at most capacity of
// the items item ids (capacity >= 1, items >= 1), allocating its own
// backing storage.
func NewBitmapCache(capacity, items int) *BitmapCache {
	c := &BitmapCache{}
	c.Init(capacity, items,
		make([]uint64, BitmapWords(items)),
		make([]bslot, capacity),
		make([]int32, 0, capacity))
	return c
}

// Init points the cache at externally owned backing storage: bits must
// hold BitmapWords(items) words, slots capacity entries, and free must
// have capacity capacity and length 0. The Population constructor carves
// all three from shared arenas so per-client setup allocates nothing.
func (c *BitmapCache) Init(capacity, items int, bits []uint64, slots []bslot, free []int32) {
	if capacity < 1 {
		panic("population: cache capacity must be at least 1")
	}
	if items < 1 {
		panic("population: item space must be at least 1")
	}
	c.capacity = capacity
	c.items = int32(items)
	c.bits = bits
	c.slots = slots
	c.free = free
	c.resetSlots()
}

// resetSlots empties the slot structure without touching statistics. The
// free stack is rebuilt high-to-low so pops hand out ascending slot
// numbers, mirroring internal/cache.New — slot numbering is unobservable,
// but keeping the layouts aligned makes state dumps comparable.
func (c *BitmapCache) resetSlots() {
	c.free = c.free[:0]
	for i := c.capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	c.head, c.tail = nilSlot, nilSlot
}

// Cap reports the cache capacity in items.
func (c *BitmapCache) Cap() int { return c.capacity }

// Len reports the number of cached items.
func (c *BitmapCache) Len() int { return c.capacity - len(c.free) }

// Hits and Misses report Lookup outcomes; Evictions counts LRU
// replacements, Invalidations counts Invalidate removals, Drops counts
// DropAll calls.
func (c *BitmapCache) Hits() int64          { return c.hits }
func (c *BitmapCache) Misses() int64        { return c.misses }
func (c *BitmapCache) Evictions() int64     { return c.evictions }
func (c *BitmapCache) Invalidations() int64 { return c.invalidations }
func (c *BitmapCache) Drops() int64         { return c.drops }

// present is the bitmap probe: one load, one mask.
//
//hot — the negative-lookup fast path of every report application and
// query scan; a single bit test, no allocation.
func (c *BitmapCache) present(id int32) bool {
	return c.bits[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

func (c *BitmapCache) setBit(id int32)   { c.bits[uint32(id)>>6] |= 1 << (uint32(id) & 63) }
func (c *BitmapCache) clearBit(id int32) { c.bits[uint32(id)>>6] &^= 1 << (uint32(id) & 63) }

// slotOf finds the slot holding id by walking the recency list. Callers
// probe the bitmap first, so the walk only runs when the id is present;
// it is bounded by the (small) capacity.
//
//hot — bounded linear walk, no allocation.
func (c *BitmapCache) slotOf(id int32) int32 {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		if c.slots[s].id == id {
			return s
		}
	}
	panic("population: bitmap/slot divergence")
}

//hot — list surgery only.
func (c *BitmapCache) unlink(s int32) {
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

//hot — list surgery only.
func (c *BitmapCache) pushFront(s int32) {
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

// entryAt materializes the slot as a cache.Entry value.
func (c *BitmapCache) entryAt(s int32) cache.Entry {
	e := &c.slots[s]
	return cache.Entry{ID: e.id, TS: e.ts, Version: e.ver}
}

// Lookup finds id, promoting it to most recently used on a hit, and
// records the hit or miss.
//
//hot — every queried item passes through here; the Entry return value
// is a small struct handed back on the stack.
func (c *BitmapCache) Lookup(id int32) (cache.Entry, bool) {
	if !c.present(id) {
		c.misses++
		//lint:allow hotalloc the zero Entry is returned by value on the stack
		return cache.Entry{}, false
	}
	c.hits++
	s := c.slotOf(id)
	c.unlink(s)
	c.pushFront(s)
	return c.entryAt(s), true
}

// Peek finds id without promoting it or recording statistics.
//
//hot — report application probes every announced id through here.
func (c *BitmapCache) Peek(id int32) (cache.Entry, bool) {
	if !c.present(id) {
		//lint:allow hotalloc the zero Entry is returned by value on the stack
		return cache.Entry{}, false
	}
	return c.entryAt(c.slotOf(id)), true
}

// Put inserts or refreshes id with the given validity timestamp and
// version, making it most recently used and evicting the LRU entry when
// the cache is full.
//
//hot — every fetched item lands here; eviction reuses the tail slot, so
// steady-state inserts allocate nothing.
func (c *BitmapCache) Put(id int32, ts float64, version int32) {
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
		c.evictions++
	}
	//lint:allow hotalloc slot assignment by composite literal writes in place; the backing array is preallocated
	c.slots[s] = bslot{id: id, ts: ts, ver: version, prev: nilSlot, next: nilSlot}
	c.setBit(id)
	c.pushFront(s)
}

// Touch updates the validity timestamp of id if cached, without changing
// recency.
//
//hot — one bit probe plus a bounded walk.
func (c *BitmapCache) Touch(id int32, ts float64) {
	if c.present(id) {
		c.slots[c.slotOf(id)].ts = ts
	}
}

// TouchAll advances the validity timestamp of every entry.
//
//hot — the TS family stamps the whole cache on every confirming report.
func (c *BitmapCache) TouchAll(ts float64) {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.slots[s].ts = ts
	}
}

// Invalidate removes id if cached, reporting whether it was present.
//
//hot — every report entry naming a cached item passes through here; the
// freed slot returns to the stack in place.
func (c *BitmapCache) Invalidate(id int32) bool {
	if !c.present(id) {
		return false
	}
	s := c.slotOf(id)
	c.unlink(s)
	c.clearBit(id)
	//lint:allow hotalloc the free stack was built with the full capacity, so this append never grows it
	c.free = append(c.free, s)
	c.invalidations++
	return true
}

// DropAll empties the cache. The bitmap is cleared entry-by-entry off the
// recency list, so the cost scales with the occupancy, not the item
// space.
func (c *BitmapCache) DropAll() {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.clearBit(c.slots[s].id)
	}
	c.resetSlots()
	c.drops++
}

// Each visits entries from most to least recently used, stopping early if
// fn returns false.
func (c *BitmapCache) Each(fn func(e cache.Entry) bool) {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		if !fn(c.entryAt(s)) {
			return
		}
	}
}

// Entries appends every cached entry, MRU first, to dst.
func (c *BitmapCache) Entries(dst []cache.Entry) []cache.Entry {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.entryAt(s))
	}
	return dst
}

// IDs appends all cached item ids, MRU first, to dst.
func (c *BitmapCache) IDs(dst []int32) []int32 {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.slots[s].id)
	}
	return dst
}

// Reload replaces the cache contents with the given entries (MRU first),
// reinstating a decoded snapshot at warm restart, without touching
// statistics. Entries beyond the capacity or with duplicate ids panic,
// exactly like internal/cache.
func (c *BitmapCache) Reload(entries []cache.Entry) {
	if len(entries) > c.capacity {
		panic("population: reload beyond capacity")
	}
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.clearBit(c.slots[s].id)
	}
	c.resetSlots()
	// Insert LRU-first so the recency list ends MRU-first, matching the
	// order the snapshot recorded.
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if c.present(e.ID) {
			panic("population: duplicate id in reload")
		}
		s := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.slots[s] = bslot{id: e.ID, ts: e.TS, ver: e.Version, prev: nilSlot, next: nilSlot}
		c.setBit(e.ID)
		c.pushFront(s)
	}
}

// ResetStats zeroes the hit/miss/eviction counters (measurement warmup);
// cache contents are untouched.
func (c *BitmapCache) ResetStats() {
	c.hits, c.misses, c.evictions, c.invalidations, c.drops = 0, 0, 0, 0, 0
}

// HitRatio reports hits / (hits + misses), or 0 before any lookup.
func (c *BitmapCache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
