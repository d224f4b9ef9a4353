package cache

import (
	"math"
	"testing"
)

// The bitmap Cache is trusted only because everything observable about
// it — LRU order, hit/miss accounting, entry contents, reload semantics —
// is differentially pinned against lru, a map-indexed LRU that states the
// paper's buffer pool directly, by a fuzzer over random op streams and by
// boundary tables at the item-space word edges.

// lru is the reference buffer pool: a fixed-capacity LRU keyed by item id
// through a map, with an intrusive recency list over a slot array.
type lru struct {
	cap   int
	slots []lruSlot
	index map[int32]int32 // item id -> slot
	free  []int32
	head  int32 // most recently used
	tail  int32 // least recently used

	hits, misses int64
}

type lruSlot struct {
	e          Entry
	prev, next int32
}

func newLRU(capacity int) *lru {
	c := &lru{
		cap:   capacity,
		slots: make([]lruSlot, capacity),
		index: make(map[int32]int32, capacity),
	}
	c.reset()
	return c
}

func (c *lru) reset() {
	for id := range c.index {
		delete(c.index, id)
	}
	c.free = c.free[:0]
	for i := c.cap - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	c.head, c.tail = nilSlot, nilSlot
}

func (c *lru) Len() int      { return len(c.index) }
func (c *lru) Hits() int64   { return c.hits }
func (c *lru) Misses() int64 { return c.misses }

func (c *lru) unlink(s int32) {
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

func (c *lru) pushFront(s int32) {
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

func (c *lru) Lookup(id int32) (Entry, bool) {
	s, ok := c.index[id]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.unlink(s)
	c.pushFront(s)
	return c.slots[s].e, true
}

func (c *lru) Peek(id int32) (Entry, bool) {
	s, ok := c.index[id]
	if !ok {
		return Entry{}, false
	}
	return c.slots[s].e, true
}

func (c *lru) Put(id int32, ts float64, version int32) {
	if s, ok := c.index[id]; ok {
		c.slots[s].e.TS = ts
		c.slots[s].e.Version = version
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
		delete(c.index, c.slots[s].e.ID)
		c.unlink(s)
	}
	c.slots[s] = lruSlot{e: Entry{ID: id, TS: ts, Version: version}, prev: nilSlot, next: nilSlot}
	c.index[id] = s
	c.pushFront(s)
}

func (c *lru) TouchAll(ts float64) {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		c.slots[s].e.TS = ts
	}
}

func (c *lru) Invalidate(id int32) bool {
	s, ok := c.index[id]
	if !ok {
		return false
	}
	c.unlink(s)
	delete(c.index, id)
	c.free = append(c.free, s)
	return true
}

// InvalidateIf states the sweep as the copy-then-invalidate it replaces:
// snapshot the entries MRU first, then invalidate each one stale marks.
func (c *lru) InvalidateIf(stale func(Entry) bool) int {
	removed := 0
	for _, e := range c.Entries(nil) {
		if stale(e) {
			c.Invalidate(e.ID)
			removed++
		}
	}
	return removed
}

func (c *lru) DropAll() { c.reset() }

func (c *lru) Entries(dst []Entry) []Entry {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.slots[s].e)
	}
	return dst
}

func (c *lru) IDs(dst []int32) []int32 {
	for s := c.head; s != nilSlot; s = c.slots[s].next {
		dst = append(dst, c.slots[s].e.ID)
	}
	return dst
}

func (c *lru) Reload(entries []Entry) {
	if len(entries) > c.cap {
		panic("lru: reload beyond capacity")
	}
	c.reset()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if _, dup := c.index[e.ID]; dup {
			panic("lru: duplicate id in reload")
		}
		s := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.slots[s] = lruSlot{e: e, prev: nilSlot, next: nilSlot}
		c.index[e.ID] = s
		c.pushFront(s)
	}
}

// pair drives the shipped cache and the reference in lockstep and asserts
// every observable agrees after each operation.
type pair struct {
	t   *testing.T
	ref *lru
	c   *Cache
}

func newPair(t *testing.T, capacity, items int) *pair {
	return &pair{t: t, ref: newLRU(capacity), c: New(capacity, items)}
}

func (p *pair) check() {
	p.t.Helper()
	if p.ref.Len() != p.c.Len() {
		p.t.Fatalf("len diverged: ref=%d cache=%d", p.ref.Len(), p.c.Len())
	}
	if p.ref.Hits() != p.c.Hits() || p.ref.Misses() != p.c.Misses() {
		p.t.Fatalf("lookup stats diverged: ref=%d/%d cache=%d/%d",
			p.ref.Hits(), p.ref.Misses(), p.c.Hits(), p.c.Misses())
	}
	a := p.ref.Entries(nil)
	b := p.c.Entries(nil)
	if len(a) != len(b) {
		p.t.Fatalf("entries diverged: ref=%v cache=%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			p.t.Fatalf("entry %d diverged (MRU order): ref=%v cache=%v", i, a[i], b[i])
		}
	}
	ids1 := p.ref.IDs(nil)
	ids2 := p.c.IDs(nil)
	if len(ids1) != len(ids2) {
		p.t.Fatalf("ids diverged: ref=%v cache=%v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			p.t.Fatalf("id order diverged: ref=%v cache=%v", ids1, ids2)
		}
	}
}

// lookup and peek apply one probe to both sides and compare the results.
func (p *pair) lookup(id int32) {
	p.t.Helper()
	e1, ok1 := p.ref.Lookup(id)
	e2, ok2 := p.c.Lookup(id)
	if ok1 != ok2 || e1 != e2 {
		p.t.Fatalf("Lookup(%d) diverged: ref=%v,%v cache=%v,%v", id, e1, ok1, e2, ok2)
	}
}

func (p *pair) peek(id int32) {
	p.t.Helper()
	e1, ok1 := p.ref.Peek(id)
	e2, ok2 := p.c.Peek(id)
	if ok1 != ok2 || e1 != e2 {
		p.t.Fatalf("Peek(%d) diverged: ref=%v,%v cache=%v,%v", id, e1, ok1, e2, ok2)
	}
}

func (p *pair) invalidate(id int32) {
	p.t.Helper()
	if p.ref.Invalidate(id) != p.c.Invalidate(id) {
		p.t.Fatalf("Invalidate(%d) verdicts diverged", id)
	}
}

// invalidateIf sweeps both sides with the same predicate: an entry is
// stale when bit ID%8 of mask is set or its timestamp is below cutoff.
// Both sides must show the predicate the same entries in the same (MRU)
// order and report the same count; check then compares the survivors.
func (p *pair) invalidateIf(mask uint8, cutoff float64) {
	p.t.Helper()
	var seen [2][]Entry
	sweep := func(side int) func(Entry) bool {
		return func(e Entry) bool {
			seen[side] = append(seen[side], e)
			return mask&(1<<(uint32(e.ID)%8)) != 0 || e.TS < cutoff
		}
	}
	n1, n2 := p.ref.InvalidateIf(sweep(0)), p.c.InvalidateIf(sweep(1))
	if n1 != n2 {
		p.t.Fatalf("InvalidateIf(%#x, %v) removed ref=%d cache=%d", mask, cutoff, n1, n2)
	}
	if len(seen[0]) != len(seen[1]) {
		p.t.Fatalf("InvalidateIf visited ref=%v cache=%v", seen[0], seen[1])
	}
	for i := range seen[0] {
		if seen[0][i] != seen[1][i] {
			p.t.Fatalf("InvalidateIf visit %d diverged: ref=%v cache=%v", i, seen[0], seen[1])
		}
	}
}

func (p *pair) put(id int32, ts float64, ver int32) {
	p.ref.Put(id, ts, ver)
	p.c.Put(id, ts, ver)
}

// reload applies one Reload to both sides: the reference's current
// contents, MRU first, cut to keep entries and each restamped below ts so
// the transplanted timestamps differ from the ones a touch left behind.
func (p *pair) reload(keep int, ts float64) {
	p.t.Helper()
	entries := p.ref.Entries(nil)
	entries = entries[:keep%(len(entries)+1)]
	for i := range entries {
		entries[i].TS = ts - 0.125*float64(i)
	}
	p.ref.Reload(entries)
	p.c.Reload(entries)
}

// fuzzOps is the number of operations step chooses from; an op byte's
// quotient by it ages a Put's timestamp by that many seconds, so a Put
// can land below an earlier TouchAll's time, and sets how far below the
// op clock an InvalidateIf's timestamp cutoff lies (none for a zero
// quotient).
const fuzzOps = 10

// step applies one fuzz-chosen operation to both sides.
func (p *pair) step(op byte, id int32, ts float64, ver int32) {
	p.t.Helper()
	switch op % fuzzOps {
	case 0, 1:
		p.lookup(id)
	case 2:
		p.peek(id)
	case 3, 4:
		p.put(id, ts-float64(op/fuzzOps), ver)
	case 5:
		p.invalidate(id)
	case 6:
		p.ref.TouchAll(ts)
		p.c.TouchAll(ts)
	case 7:
		p.ref.DropAll()
		p.c.DropAll()
	case 8:
		p.reload(int(id), ts)
	case 9:
		cutoff := math.Inf(-1)
		if age := op / fuzzOps; age > 0 {
			cutoff = ts - float64(age)
		}
		p.invalidateIf(uint8(id), cutoff)
	}
	p.check()
}

// Fuzz op bytes for the corpus seeds below; putOld is a Put four seconds
// older than the op clock.
const (
	opLookup     = 0
	opPeek       = 2
	opPut        = 3
	opInvalidate = 5
	opTouch      = 6
	opDrop       = 7
	opReload     = 8
	opSweep      = 9
	opPutOld     = opPut + 4*fuzzOps
)

// fillOps puts ids 0..n-1, touches the cache, refreshes the last id with
// an old timestamp, puts n, and peeks every id: at capacity n it crosses
// the fresh bitmap's word edge when n is 64 or 65.
func fillOps(n int) []byte {
	var ops []byte
	for id := 0; id < n; id++ {
		ops = append(ops, opPut, byte(id))
	}
	ops = append(ops, opTouch, 0, opPutOld, byte(n-1), opPut, byte(n))
	for id := 0; id <= n; id++ {
		ops = append(ops, opPeek, byte(id))
	}
	return ops
}

// FuzzCache feeds both sides the same op stream and fails on the first
// observable divergence. The corpus seeds cover the word edges of the
// presence bitmap (ids 0, 63, 64), capacity-1 eviction pressure, and the
// touch-time bookkeeping: Puts and refreshes after a TouchAll (including
// timestamps older than the touch), promotion of touched entries, a freed
// slot reused across a touch, DropAll and Reload after a touch, the
// fresh bitmap's word edge at capacities 64 and 65, and InvalidateIf
// sweeps by id and by timestamp, each followed by inserts that reuse the
// slots it freed.
func FuzzCache(f *testing.F) {
	f.Add(uint8(4), uint8(200), []byte{3, 0, 3, 63, 3, 64, 0, 63, 5, 0, 7, 7})
	f.Add(uint8(1), uint8(100), []byte{3, 1, 3, 2, 3, 3, 0, 1, 0, 3})
	f.Add(uint8(8), uint8(65), []byte{3, 64, 3, 0, 6, 10, 5, 64, 2, 64})
	f.Add(uint8(16), uint8(255), []byte{3, 254, 3, 0, 3, 127, 3, 128, 0, 254, 7, 0})
	// A Put after a touch, older than the touch time.
	f.Add(uint8(3), uint8(99), []byte{opPut, 1, opPut, 2, opTouch, 0, opPutOld, 3, opPeek, 1, opPeek, 3})
	// A refresh of a touched entry, then one older than the touch.
	f.Add(uint8(3), uint8(99), []byte{opPut, 1, opPut, 2, opTouch, 0, opPut, 1, opPeek, 2, opPutOld, 2, opPeek, 2})
	// A Lookup promotes a touched entry; the next insert evicts the other.
	f.Add(uint8(2), uint8(99), []byte{opPut, 1, opPut, 2, opPut, 3, opTouch, 0, opLookup, 1, opPut, 4, opPeek, 1})
	// An invalidated slot reused after a touch, and a second touch.
	f.Add(uint8(3), uint8(99), []byte{opPut, 1, opPut, 2, opPut, 3, opInvalidate, 2, opTouch, 0, opPutOld, 9, opTouch, 0, opPut, 2})
	// DropAll after a touch, then a refill.
	f.Add(uint8(3), uint8(99), []byte{opPut, 1, opPut, 2, opTouch, 0, opDrop, 0, opPutOld, 5, opPeek, 5, opPeek, 1})
	// Reload after a touch, then a touch and Put over the reloaded entries.
	f.Add(uint8(3), uint8(99), []byte{opPut, 1, opPut, 2, opPut, 3, opTouch, 0, opReload, 2, opPut, 7, opTouch, 0, opReload, 3, opPutOld, 1})
	// A sweep by id mask over entries of mixed recency, then a refill that
	// takes the freed slots from the chain the sweep left.
	f.Add(uint8(6), uint8(99), []byte{opPut, 1, opPut, 2, opPut, 3, opPut, 4, opLookup, 2, opSweep, 0x0a, opPut, 5, opPut, 6, opPut, 7})
	// A sweep by timestamp across a touch: touched entries read the touch
	// time, a later old Put keeps its own.
	f.Add(uint8(4), uint8(99), []byte{opPut, 1, opPut, 2, opTouch, 0, opPutOld, 3, opSweep + 2*fuzzOps, 0, opPut, 9, opPeek, 1})
	// A sweep that empties the cache, then eviction pressure.
	f.Add(uint8(2), uint8(99), []byte{opPut, 8, opPut, 16, opSweep, 0x01, opPut, 1, opPut, 2, opPut, 3})
	f.Add(uint8(63), uint8(255), fillOps(64))
	f.Add(uint8(64), uint8(255), fillOps(65))
	f.Fuzz(func(t *testing.T, capRaw, itemsRaw uint8, ops []byte) {
		capacity := int(capRaw%80) + 1
		items := int(itemsRaw) + 1
		p := newPair(t, capacity, items)
		ts := 0.0
		for i := 0; i+1 < len(ops); i += 2 {
			ts += 0.5
			id := int32(int(ops[i+1]) % items)
			p.step(ops[i], id, ts, int32(ops[i])%7)
		}
	})
}

// TestBitmapBoundaryIDs walks the item-space edges where the presence
// bitmap's word indexing could slip: first and last bit of a word, the
// last id of the space, single-word and multi-word spaces.
func TestBitmapBoundaryIDs(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		items    int
		ids      []int32
	}{
		{"single-word", 4, 64, []int32{0, 1, 62, 63}},
		{"word-edge", 4, 128, []int32{63, 64, 65, 127}},
		{"last-id", 3, 1000, []int32{0, 511, 512, 999}},
		{"tiny-space", 2, 3, []int32{0, 1, 2}},
		{"capacity-one", 1, 256, []int32{0, 63, 64, 255}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, tc.capacity, tc.items)
			ts := 1.0
			for _, id := range tc.ids {
				p.put(id, ts, 1)
				p.check()
				ts++
			}
			for _, id := range tc.ids {
				p.lookup(id)
				p.check()
			}
			for _, id := range tc.ids {
				p.invalidate(id)
				p.check()
			}
		})
	}
}

// TestBitmapReloadMirrorsCache pins the warm-restart transplant path:
// Reload replaces contents without touching statistics, exactly like the
// reference, and both panic on overflow and duplicates.
func TestBitmapReloadMirrorsCache(t *testing.T) {
	p := newPair(t, 4, 128)
	p.put(5, 1, 1)
	p.lookup(5)
	p.lookup(99)
	entries := []Entry{{ID: 64, TS: 3, Version: 2}, {ID: 63, TS: 2, Version: 1}}
	p.ref.Reload(entries)
	p.c.Reload(entries)
	p.check()
	if p.c.Hits() != 1 || p.c.Misses() != 1 {
		t.Fatalf("Reload touched stats: hits=%d misses=%d", p.c.Hits(), p.c.Misses())
	}

	for name, bad := range map[string][]Entry{
		"overflow":  {{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}},
		"duplicate": {{ID: 7}, {ID: 7}},
	} {
		for side, reload := range map[string]func([]Entry){
			"reference": newLRU(4).Reload,
			"cache":     New(4, 128).Reload,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s %s reload did not panic", side, name)
					}
				}()
				reload(bad)
			}()
		}
	}
}

// TestBitmapArenaIsolation pins the shared-arena construction: caches
// carved by an Arena's NewSet must never bleed into a neighbour's slots, even at full
// capacity churn on both sides of the carve boundary, and each must track
// its own reference.
func TestBitmapArenaIsolation(t *testing.T) {
	const n, capacity, items = 3, 4, 128
	caches := new(Arena).NewSet(n, capacity, items)
	var refs [n]*lru
	for i := range refs {
		refs[i] = newLRU(capacity)
	}
	// Churn every cache past capacity with distinct id streams.
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			for j := 0; j < 2*capacity; j++ {
				id := int32((i*40 + j + round) % items)
				caches[i].Put(id, float64(j), int32(i))
				refs[i].Put(id, float64(j), int32(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		p := &pair{t: t, ref: refs[i], c: &caches[i]}
		p.check()
		if caches[i].Len() != capacity {
			t.Fatalf("cache %d len %d, want %d", i, caches[i].Len(), capacity)
		}
		for _, e := range caches[i].Entries(nil) {
			if e.Version != int32(i) {
				t.Fatalf("cache %d holds neighbour entry %+v", i, e)
			}
		}
		caches[i].DropAll()
		if caches[i].Len() != 0 {
			t.Fatalf("cache %d not empty after DropAll", i)
		}
	}
}
