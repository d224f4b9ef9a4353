package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"mobicache/internal/rng"
)

func TestPutLookup(t *testing.T) {
	c := New(3, 100)
	c.Put(10, 1.5, 2)
	e, ok := c.Lookup(10)
	if !ok || e.ID != 10 || e.TS != 1.5 || e.Version != 2 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if _, ok := c.Lookup(11); ok {
		t.Fatal("phantom hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3, 100)
	c.Put(1, 0, 0)
	c.Put(2, 0, 0)
	c.Put(3, 0, 0)
	c.Lookup(1) // promote 1; LRU is now 2
	c.Put(4, 0, 0)
	if _, ok := c.Peek(2); ok {
		t.Fatal("LRU item 2 survived eviction")
	}
	for _, id := range []int32{1, 3, 4} {
		if _, ok := c.Peek(id); !ok {
			t.Fatalf("item %d missing", id)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(2, 100)
	c.Put(1, 10, 1)
	c.Put(2, 10, 1)
	c.Put(1, 20, 2) // refresh, promote
	c.Put(3, 10, 1) // evicts 2, not 1
	if _, ok := c.Peek(1); !ok {
		t.Fatal("refreshed item evicted")
	}
	if e, _ := c.Peek(1); e.TS != 20 || e.Version != 2 {
		t.Fatalf("refresh lost: %+v", e)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New(2, 100)
	c.Put(1, 0, 0)
	c.Put(2, 0, 0)
	c.Peek(1)      // must not promote
	c.Put(3, 0, 0) // evicts 1
	if _, ok := c.Peek(1); ok {
		t.Fatal("Peek promoted")
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Peek recorded stats")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(3, 100)
	c.Put(1, 0, 0)
	c.Put(2, 0, 0)
	if !c.Invalidate(1) {
		t.Fatal("Invalidate missed")
	}
	if c.Invalidate(1) {
		t.Fatal("double invalidate")
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d", c.Len())
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("invalidated item still cached")
	}
	// Freed slot is reusable.
	c.Put(5, 0, 0)
	c.Put(6, 0, 0)
	if c.Len() != 3 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestDropAll(t *testing.T) {
	c := New(4, 100)
	for i := int32(0); i < 4; i++ {
		c.Put(i, 0, 0)
	}
	c.DropAll()
	if c.Len() != 0 {
		t.Fatalf("len=%d", c.Len())
	}
	for i := int32(0); i < 4; i++ {
		if _, ok := c.Peek(i); ok {
			t.Fatalf("item %d survived DropAll", i)
		}
	}
	for i := int32(10); i < 14; i++ {
		c.Put(i, 0, 0)
	}
	// The refill fits without eviction: every new item is still cached.
	for i := int32(10); i < 14; i++ {
		if _, ok := c.Peek(i); !ok || c.Len() != 4 {
			t.Fatalf("refill failed: item %d missing, len=%d", i, c.Len())
		}
	}
	c.DropAll()
	c.DropAll() // dropping an empty cache is a no-op
	if c.Len() != 0 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestTouch(t *testing.T) {
	c := New(2, 100)
	c.Put(1, 5, 1)
	c.Put(2, 5, 1)
	c.TouchAll(12)
	for _, id := range []int32{1, 2} {
		if e, _ := c.Peek(id); e.TS != 12 {
			t.Fatalf("TouchAll TS of %d = %v", id, e.TS)
		}
	}
	// TouchAll must not change recency: 1 stays least recently used.
	c.Put(3, 0, 0) // evicts LRU = 1
	if _, ok := c.Peek(1); ok {
		t.Fatal("TouchAll changed recency")
	}
	// A Put after the touch keeps its own timestamp, even one older than
	// the touch (fetched after the report, last updated before it).
	if e, _ := c.Peek(3); e.TS != 0 {
		t.Fatalf("entry put after the touch has TS %v, want its own 0", e.TS)
	}
	if e, _ := c.Peek(2); e.TS != 12 {
		t.Fatalf("touched entry TS = %v, want 12", e.TS)
	}
}

func TestEachOrderAndIDs(t *testing.T) {
	c := New(3, 100)
	c.Put(1, 0, 0)
	c.Put(2, 0, 0)
	c.Put(3, 0, 0)
	c.Lookup(2)
	want := []int32{2, 3, 1}
	entries := c.Entries(nil)
	ids := c.IDs(nil)
	if len(entries) != len(want) || len(ids) != len(want) {
		t.Fatalf("Entries = %v, IDs = %v, want ids %v", entries, ids, want)
	}
	for i := range want {
		if entries[i].ID != want[i] || ids[i] != want[i] {
			t.Fatalf("Entries = %v, IDs = %v, want ids %v", entries, ids, want)
		}
	}
}

func TestHitRatio(t *testing.T) {
	c := New(2, 10)
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("fresh cache has lookup stats")
	}
	c.Put(1, 0, 0)
	c.Lookup(1)
	c.Lookup(2)
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCapacityOne(t *testing.T) {
	c := New(1, 100)
	c.Put(1, 0, 0)
	c.Put(2, 0, 0)
	if _, ok := c.Peek(1); ok {
		t.Fatal("capacity-1 cache kept two items")
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("capacity-1 cache lost the newest item")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	for _, size := range [][2]int{{0, 10}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d, %d) did not panic", size[0], size[1])
				}
			}()
			New(size[0], size[1])
		}()
	}
}

// TestNewSetFootprint pins what a run pays to set up its caches: four
// allocations (caches, presence bits, slots, fresh bits) whatever the
// number of caches, and 24 bytes per slot.
func TestNewSetFootprint(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
	var sink []Cache
	for _, n := range []int{1, 10, 1000} {
		allocs := testing.AllocsPerRun(10, func() { sink = new(Arena).NewSet(n, 65, 1000) })
		if allocs != 4 {
			t.Errorf("fresh NewSet(%d, ...) makes %v allocations, want 4", n, allocs)
		}
	}
	if len(sink) != 1000 {
		t.Fatalf("last set has %d caches", len(sink))
	}
	// A set carved from an arena that already holds one as large makes
	// none, smaller or not.
	var a Arena
	a.NewSet(1000, 65, 1000)
	for _, n := range []int{1000, 10, 1} {
		if allocs := testing.AllocsPerRun(10, func() { sink = a.NewSet(n, 65, 1000) }); allocs != 0 {
			t.Errorf("reused NewSet(%d, ...) makes %v allocations, want 0", n, allocs)
		}
	}
}

// TestArenaReuseIsFresh fills a set, carves sets of other shapes from the
// same arena, and requires each to read exactly as a freshly allocated
// one: empty, no statistics, and the same LRU behaviour under one
// operation sequence.
func TestArenaReuseIsFresh(t *testing.T) {
	var a Arena
	for _, shape := range [][3]int{{8, 40, 500}, {3, 10, 64}, {12, 65, 1000}, {8, 40, 500}} {
		n, capacity, items := shape[0], shape[1], shape[2]
		reused, fresh := a.NewSet(n, capacity, items), new(Arena).NewSet(n, capacity, items)
		src := rng.New(uint64(n * capacity))
		for i := range reused {
			r, f := &reused[i], &fresh[i]
			if r.Len() != 0 || r.Hits() != 0 || r.Misses() != 0 {
				t.Fatalf("shape %v cache %d: reused cache not empty", shape, i)
			}
			for op := 0; op < 4*capacity; op++ {
				id := int32(src.Intn(items))
				switch src.Intn(4) {
				case 0:
					r.Put(id, float64(op), int32(op))
					f.Put(id, float64(op), int32(op))
				case 1:
					r.TouchAll(float64(op))
					f.TouchAll(float64(op))
				case 2:
					if r.Invalidate(id) != f.Invalidate(id) {
						t.Fatalf("shape %v cache %d op %d: Invalidate differs", shape, i, op)
					}
				default:
					re, rok := r.Lookup(id)
					fe, fok := f.Lookup(id)
					if re != fe || rok != fok {
						t.Fatalf("shape %v cache %d op %d: Lookup %v,%v, fresh %v,%v", shape, i, op, re, rok, fe, fok)
					}
				}
			}
			if got, want := r.Entries(nil), f.Entries(nil); !slices.Equal(got, want) {
				t.Fatalf("shape %v cache %d: entries %v, fresh %v", shape, i, got, want)
			}
		}
	}
}

// Property: under random operations the cache never exceeds capacity, the
// LRU list and index stay consistent, and Lookup returns exactly what was
// last Put.
func TestCacheConsistencyProperty(t *testing.T) {
	src := rng.New(7)
	f := func(opsRaw uint16, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		c := New(capacity, 24)
		model := make(map[int32]float64) // id -> ts for items possibly cached
		ops := int(opsRaw) % 500
		for i := 0; i < ops; i++ {
			id := int32(src.Intn(24))
			switch src.Intn(4) {
			case 0:
				ts := src.Float64()
				c.Put(id, ts, 1)
				model[id] = ts
			case 1:
				if e, ok := c.Lookup(id); ok {
					if want, inModel := model[id]; !inModel || e.TS != want {
						return false
					}
				}
			case 2:
				c.Invalidate(id)
				delete(model, id)
			case 3:
				if src.Intn(20) == 0 {
					c.DropAll()
					model = make(map[int32]float64)
				}
			}
			if c.Len() > capacity {
				return false
			}
			// List/bitmap agreement.
			if len(c.IDs(nil)) != c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
