// Package cache implements the mobile client's buffer pool: a fixed
// capacity LRU cache of data items (paper §4: "Cached data items are
// managed using an LRU replacement policy"). Each entry carries the
// timestamp of the version it holds, which the timestamp-based
// invalidation algorithms compare against report entries.
package cache

import "mobicache/internal/reuse"

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
// A free slot is chained to the next free one through next. ts is the
// slot's own timestamp; it is current only while the slot's fresh bit is
// set (see TouchAll).
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
// Confirming the whole cache (TouchAll) is O(capacity/64): a second
// bitmap, one bit per slot, marks the slots written since the last touch,
// and every other present slot reads the touch time.
// FuzzCache pins LRU order, hit/miss accounting, entry contents and
// Reload panics against a map-indexed reference LRU.
//
// The zero value is unusable; call New, or an Arena's NewSet to carve
// many caches from shared arenas (reusing them from a previous set).
type Cache struct {
	capacity int
	bits     []uint64 // presence, one bit per item id
	slots    []slot
	fresh    []uint64 // one bit per slot: written since the last TouchAll
	touchTS  float64  // the last TouchAll's timestamp
	head     int32    // most recently used
	tail     int32    // least recently used
	free     int32    // first freed slot, chained through next
	used     int32    // high-water mark: slots[used:] were never handed out
	n        int32    // cached items

	hits, misses int64
}

// New creates a standalone cache holding at most capacity of the items
// item ids (capacity >= 1, items >= 1).
func New(capacity, items int) *Cache { return &new(Arena).NewSet(1, capacity, items)[0] }

// Arena is the storage a cache set is carved from: the presence bitmaps,
// the slots, the fresh-slot bitmaps and the Cache headers. The zero value
// holds nothing, so a set carved from a new Arena is freshly allocated
// and a million caches cost four allocations. NewSet reuses each array
// that is large enough and allocates the others, so a run that follows
// another on the same arena allocates nothing for its caches when it
// fits. A set is valid until its arena carves the next one.
type Arena struct {
	bits, fresh []uint64
	slots       []slot
	caches      []Cache
}

// NewSet carves n caches like New from a's storage, reinitialised
// exactly as fresh allocation would leave it.
func (a *Arena) NewSet(n, capacity, items int) []Cache {
	if capacity < 1 {
		panic("cache: capacity must be at least 1")
	}
	if items < 1 {
		panic("cache: item space must be at least 1")
	}
	words := (items + 63) / 64
	freshWords := (capacity + 63) / 64
	a.bits = reuse.Slice(a.bits, words*n)
	a.slots = reuse.Slice(a.slots, capacity*n)
	a.fresh = reuse.Slice(a.fresh, freshWords*n)
	a.caches = reuse.Slice(a.caches, n)
	for i := range a.caches {
		c := &a.caches[i]
		c.capacity = capacity
		c.bits = a.bits[i*words : (i+1)*words]
		c.slots = a.slots[i*capacity : (i+1)*capacity]
		c.fresh = a.fresh[i*freshWords : (i+1)*freshWords]
		c.resetSlots()
	}
	return a.caches
}

// resetSlots empties the slot structure without touching statistics:
// every slot is unused again, so allocation restarts from slot 0.
func (c *Cache) resetSlots() {
	c.head, c.tail, c.free = nilSlot, nilSlot, nilSlot
	c.used, c.n = 0, 0
}

// Len reports the number of cached items.
func (c *Cache) Len() int { return int(c.n) }

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

// setFresh marks slot s as carrying its own timestamp.
func (c *Cache) setFresh(s int32) { c.fresh[uint32(s)>>6] |= 1 << (uint32(s) & 63) }

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

// entryAt materializes the slot as an Entry value. A slot not written
// since the last TouchAll was present at it, so its timestamp is the
// touch time.
func (c *Cache) entryAt(s int32) Entry {
	e := &c.slots[s]
	ts := c.touchTS
	if c.fresh[uint32(s)>>6]&(1<<(uint32(s)&63)) != 0 {
		ts = e.ts
	}
	return Entry{ID: e.id, TS: ts, Version: e.ver}
}

// alloc hands out a slot for a new entry: a freed one first, then one
// never used, and otherwise the LRU entry's, which it evicts.
//
// Hot path: pointer and counter bumps only.
//
//mobicache:hot
func (c *Cache) alloc() int32 {
	if s := c.free; s != nilSlot {
		c.free = c.slots[s].next
		c.n++
		return s
	}
	if int(c.used) < c.capacity {
		c.used++
		c.n++
		return c.used - 1
	}
	s := c.tail
	c.clearBit(c.slots[s].id)
	c.unlink(s)
	return s
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
		c.setFresh(s)
		c.unlink(s)
		c.pushFront(s)
		return
	}
	s := c.alloc()
	//lint:allow hotalloc slot assignment by composite literal writes in place; the backing array is preallocated
	c.slots[s] = slot{id: id, ts: ts, ver: version, prev: nilSlot, next: nilSlot}
	c.setFresh(s)
	c.setBit(id)
	c.pushFront(s)
}

// TouchAll advances the validity timestamp of every entry. It records ts
// as the touch time and clears the fresh bitmap, so every present entry
// reads ts until it is written again; a later Put keeps its own
// timestamp, even one older than ts.
//
// Hot path: the TS family stamps the whole cache on every confirming report.
//
//mobicache:hot
func (c *Cache) TouchAll(ts float64) {
	clear(c.fresh)
	c.touchTS = ts
}

// Invalidate removes id if cached, reporting whether it was present.
//
// Hot path: every report entry naming a cached item passes through here; the
// freed slot joins the free chain in place.
//
//mobicache:hot
func (c *Cache) Invalidate(id int32) bool {
	if !c.present(id) {
		return false
	}
	c.release(c.slotOf(id))
	return true
}

// InvalidateIf removes every cached entry stale marks and reports how
// many it removed. It walks the recency list once, MRU first, so the
// freed slots join the free chain exactly as Invalidate calls in that
// order would leave it; removal never reorders the survivors. stale must
// not modify the cache.
//
// Hot path: every report application that walks the cache (Figures 1 and
// 2, SIG) sweeps it here in one pass.
//
//mobicache:hot
func (c *Cache) InvalidateIf(stale func(Entry) bool) int {
	removed := 0
	for s := c.head; s != nilSlot; {
		next := c.slots[s].next
		if stale(c.entryAt(s)) {
			c.release(s)
			removed++
		}
		s = next
	}
	return removed
}

// release unlinks the occupied slot s, clears its presence bit and pushes
// it onto the free chain.
//
// Hot path: list surgery only.
//
//mobicache:hot
func (c *Cache) release(s int32) {
	c.unlink(s)
	c.clearBit(c.slots[s].id)
	c.slots[s].next = c.free
	c.free = s
	c.n--
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
// layer's snapshot encoder walks it into the persisted bitstream. It
// allocates nothing beyond dst's growth.
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
		s := c.alloc()
		c.slots[s] = slot{id: e.ID, ts: e.TS, ver: e.Version, prev: nilSlot, next: nilSlot}
		c.setFresh(s)
		c.setBit(e.ID)
		c.pushFront(s)
	}
}

// ResetStats zeroes the hit and miss counters (measurement warmup); cache
// contents are untouched.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
