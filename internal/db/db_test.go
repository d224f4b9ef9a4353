package db

import (
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"mobicache/internal/rng"
)

func TestFreshDatabase(t *testing.T) {
	d := New(10, true)
	if d.N() != 10 || d.Updates() != 0 || d.DistinctUpdated() != 0 {
		t.Fatal("fresh database state")
	}
	if d.LastUpdate(3) >= 0 {
		t.Fatal("unupdated item has non-negative last update")
	}
	if d.Version(3) != 0 {
		t.Fatal("unupdated item has non-zero version")
	}
	if d.NewestUpdateTime() != -1 {
		t.Fatal("newest update time of empty history")
	}
	if got := d.UpdatedSince(0, nil); len(got) != 0 {
		t.Fatalf("UpdatedSince on fresh db: %v", got)
	}
}

func TestUpdateBasics(t *testing.T) {
	d := New(5, true)
	d.Update(2, 10)
	d.Update(4, 20)
	d.Update(2, 30)
	if d.Updates() != 3 || d.DistinctUpdated() != 2 {
		t.Fatalf("updates=%d distinct=%d", d.Updates(), d.DistinctUpdated())
	}
	if d.LastUpdate(2) != 30 || d.Version(2) != 2 {
		t.Fatalf("item 2: last=%v ver=%d", d.LastUpdate(2), d.Version(2))
	}
	if d.NewestUpdateTime() != 30 {
		t.Fatalf("newest=%v", d.NewestUpdateTime())
	}
}

func TestUpdatedSinceOrder(t *testing.T) {
	d := New(10, false)
	d.Update(1, 5)
	d.Update(2, 10)
	d.Update(3, 15)
	d.Update(1, 20) // item 1 becomes most recent
	got := d.UpdatedSince(7, nil)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	if got[0].ID != 1 || got[0].TS != 20 {
		t.Fatalf("head = %+v", got[0])
	}
	if got[1].ID != 3 || got[2].ID != 2 {
		t.Fatalf("order = %v", got)
	}
	// Boundary: strictly greater than t.
	if n := d.CountUpdatedSince(10); n != 2 {
		t.Fatalf("CountUpdatedSince(10) = %d", n)
	}
	if n := d.CountUpdatedSince(20); n != 0 {
		t.Fatalf("CountUpdatedSince(20) = %d", n)
	}
}

func TestUpdatedSinceAppends(t *testing.T) {
	d := New(10, false)
	d.Update(1, 5)
	base := []UpdateEntry{{ID: 99, TS: 1}}
	got := d.UpdatedSince(0, base)
	if len(got) != 2 || got[0].ID != 99 {
		t.Fatalf("append semantics: %v", got)
	}
}

func TestMostRecent(t *testing.T) {
	d := New(10, false)
	for i := int32(0); i < 5; i++ {
		d.Update(i, float64(i))
	}
	var ids []int32
	d.MostRecent(3, func(id int32, ts float64) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) != 3 || ids[0] != 4 || ids[1] != 3 || ids[2] != 2 {
		t.Fatalf("MostRecent = %v", ids)
	}
	// Early stop.
	count := 0
	d.MostRecent(10, func(int32, float64) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestDepthIndexMatchesRecencyWalk pins the recency-depth index against
// ranks read off a MostRecent walk after every single update: depth[id]
// must be #{l : rank < N>>(l+1)} (0 for ids never updated or ranked past
// N/2), and LevelTS(l) must be the update time of the item at rank
// min(N>>(l+1), updated), or -1 when no item holds that rank. The seeded
// streams draw from a pool of N/3 ids (a history that never reaches N/2
// distinct items), from all N ids (one that passes it), and re-update the
// most recent item or a level's least recent marked item every few steps.
func TestDepthIndexMatchesRecencyWalk(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 65, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			src := rng.New(seed)
			d := New(n, false)
			levels := bits.Len(uint(n)) - 1
			pool := n
			if seed == 1 {
				pool = max(n/3, 1)
			}
			rank := make([]int, n)
			var recent []int32 // ids most recent first
			now := 0.0
			for i := 0; i < 3*n+10; i++ {
				id := int32(src.Intn(pool))
				if len(recent) > 0 {
					switch r := src.Float64(); {
					case r < 0.15: // the most recent item again
						id = recent[0]
					case r < 0.3: // some level's least recent marked item
						l := src.Intn(levels)
						id = recent[min(n>>(l+1), len(recent))-1]
					}
				}
				now += src.Exp(1)
				d.Update(id, now)

				recent = recent[:0]
				d.MostRecent(n, func(id int32, _ float64) bool {
					recent = append(recent, id)
					return true
				})
				for id := range rank {
					rank[id] = n // never updated: ranked past every level
				}
				for r, id := range recent {
					rank[id] = r
				}
				depth := d.DepthIndex()
				for id := 0; id < n; id++ {
					want := 0
					for l := 0; l < levels && rank[id] < n>>(l+1); l++ {
						want++
					}
					if int(depth[id]) != want {
						t.Fatalf("N=%d seed %d update %d: depth[%d] = %d, rank %d gives %d",
							n, seed, i, id, depth[id], rank[id], want)
					}
				}
				for l := 0; l < levels; l++ {
					m := min(n>>(l+1), len(recent))
					want := -1.0
					if m < len(recent) {
						want = d.LastUpdate(recent[m])
					}
					if got := d.LevelTS(l); got != want {
						t.Fatalf("N=%d seed %d update %d: LevelTS(%d) = %v, rank %d gives %v",
							n, seed, i, l, got, m, want)
					}
				}
			}
		}
	}
}

func TestVersionAt(t *testing.T) {
	d := New(4, true)
	d.Update(1, 10)
	d.Update(1, 20)
	d.Update(1, 30)
	cases := []struct {
		t    float64
		want int32
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {25, 2}, {30, 3}, {99, 3}}
	for _, c := range cases {
		if got := d.VersionAt(1, c.t); got != c.want {
			t.Fatalf("VersionAt(1, %v) = %d, want %d", c.t, got, c.want)
		}
	}
	if d.VersionAt(0, 99) != 0 {
		t.Fatal("VersionAt of never-updated item")
	}
}

// TestVersionAtMatchesSortedHistory pins VersionAt against the per-item
// history it replaced: a sorted slice of update times per item, where the
// version current at t is the number of updates before t+1e-12. Seeded
// streams mix equal timestamps, steps at and below the 1e-12 tolerance and
// items never updated; queries hit every update time, ±1e-12 around it,
// the midpoints between updates and both ends of the run.
func TestVersionAtMatchesSortedHistory(t *testing.T) {
	const n, updated = 16, 12 // ids updated..n-1 are never updated
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		d := New(n, true)
		history := make([][]float64, n)
		var times []float64
		now := 0.0
		for i := 0; i < 400; i++ {
			switch r := src.Float64(); {
			case r < 0.3: // same instant as the previous update
			case r < 0.4:
				now += 1e-12
			case r < 0.5:
				now += 4e-13
			default:
				now += src.Exp(1)
			}
			id := int32(src.Intn(updated))
			d.Update(id, now)
			history[id] = append(history[id], now)
			times = append(times, now)
		}
		queries := []float64{-1, 0, now + 1}
		for i, u := range times {
			queries = append(queries, u, u-1e-12, u+1e-12)
			if i > 0 {
				queries = append(queries, (times[i-1]+u)/2)
			}
		}
		for _, q := range queries {
			for id := int32(0); id < n; id++ {
				want := int32(sort.SearchFloat64s(history[id], q+1e-12))
				if got := d.VersionAt(id, q); got != want {
					t.Fatalf("seed %d: VersionAt(%d, %v) = %d, sorted history says %d",
						seed, id, q, got, want)
				}
			}
		}
	}
}

func TestVersionAtRequiresHistory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(3, false).VersionAt(0, 1)
}

func TestCheckValid(t *testing.T) {
	d := New(3, false)
	d.Update(0, 50)
	if d.CheckValid(0, 40) {
		t.Fatal("item updated after tlb reported valid")
	}
	if !d.CheckValid(0, 50) {
		t.Fatal("item updated exactly at tlb should be valid (client saw it)")
	}
	if !d.CheckValid(1, 0) {
		t.Fatal("never-updated item should be valid")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero items":   func() { New(0, false) },
		"id range":     func() { New(3, false).Update(3, 1) },
		"neg id":       func() { New(3, false).Update(-1, 1) },
		"time reorder": func() { d := New(3, false); d.Update(0, 10); d.Update(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: after any sequence of updates, UpdatedSince(t) returns exactly
// the items with lastUpdate > t, in strictly decreasing time order with no
// duplicates.
func TestUpdatedSinceProperty(t *testing.T) {
	src := rng.New(99)
	f := func(opsRaw uint8, seed uint16) bool {
		n := 20
		d := New(n, false)
		now := 0.0
		last := make([]float64, n)
		for i := range last {
			last[i] = -1
		}
		ops := int(opsRaw)
		for i := 0; i < ops; i++ {
			now += src.Exp(1)
			id := int32(src.Intn(n))
			d.Update(id, now)
			last[id] = now
		}
		cut := now * src.Float64()
		got := d.UpdatedSince(cut, nil)
		seen := make(map[int32]bool)
		prev := 1e18
		for _, e := range got {
			if e.TS <= cut || seen[e.ID] || e.TS > prev || last[e.ID] != e.TS {
				return false
			}
			seen[e.ID] = true
			prev = e.TS
		}
		// Completeness.
		for id, ts := range last {
			if ts > cut && !seen[int32(id)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the recency list visits every ever-updated item exactly once,
// in decreasing time order.
func TestRecencyListIntegrity(t *testing.T) {
	src := rng.New(123)
	d := New(50, false)
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(50)), now)
	}
	var ids []int32
	prev := 1e18
	d.MostRecent(100, func(id int32, ts float64) bool {
		if ts > prev {
			t.Fatalf("recency order broken at %d", id)
		}
		prev = ts
		ids = append(ids, id)
		return true
	})
	if len(ids) != d.DistinctUpdated() {
		t.Fatalf("visited %d, distinct %d", len(ids), d.DistinctUpdated())
	}
	seen := make(map[int32]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate %d in recency list", id)
		}
		seen[id] = true
	}
}
