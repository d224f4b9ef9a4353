package core_test

import (
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/population"
	"mobicache/internal/report"
	"mobicache/internal/rng"
)

// statCache is a core.Cache that also reports its invalidation count;
// both cache representations are.
type statCache interface {
	core.Cache
	Invalidations() int64
}

// TestInvalidationWalksAgree pins the two walks applyTSEntries chooses
// between: for random cache contents and reports, the cache walk and the
// report walk leave identical caches — same entries in the same MRU
// order, same timestamps and versions, same invalidation count — on both
// cache representations, and both match the Figure 1 rule computed
// directly. Timestamps come from a five-value set so cached.TS == e.TS,
// which must not invalidate, is frequent; occupancy sweeps 0..capacity,
// report length 0..N, and most ids of each side are absent from the other.
func TestInvalidationWalksAgree(t *testing.T) {
	const items, capacity = 130, 10 // the id space spans three bitmap words
	src := rng.New(12)
	walks := core.NewFanout(items)
	ids := make([]int, items)
	var invalidated, kept int
	for round := 0; round < 3000; round++ {
		occupancy := round % (capacity + 1)
		r := &report.TSReport{T: 10}
		src.Perm(ids)
		for _, id := range ids[:src.Intn(items+1)] {
			r.Entries = append(r.Entries, db.UpdateEntry{ID: int32(id), TS: float64(1 + src.Intn(5))})
		}
		newest := make(map[int32]float64, len(r.Entries))
		for _, e := range r.Entries {
			newest[e.ID] = e.TS
		}

		caches := []statCache{
			cache.New(capacity), cache.New(capacity),
			population.NewBitmapCache(capacity, items), population.NewBitmapCache(capacity, items),
		}
		for _, c := range caches {
			fill := src.Split(uint64(round))
			for c.Len() < occupancy {
				c.Put(int32(fill.Intn(items)), float64(1+fill.Intn(5)), int32(fill.Intn(100)))
			}
		}
		before := caches[0].Entries(nil)
		var want []cache.Entry
		for _, e := range before {
			ts, listed := newest[e.ID]
			if listed && e.TS < ts {
				invalidated++
				continue
			}
			if listed {
				kept++
			}
			want = append(want, e)
		}

		walks.ByCache(caches[0], r)
		walks.ByReport(caches[1], r)
		walks.ByCache(caches[2], r)
		walks.ByReport(caches[3], r)
		for i, c := range caches {
			got := c.Entries(nil)
			if len(got) != len(want) {
				t.Fatalf("round %d cache %d: %d survivors, want %d\ngot  %v\nwant %v", round, i, len(got), len(want), got, want)
			}
			for j := range got {
				if got[j].ID != want[j].ID || got[j].TS != want[j].TS || got[j].Version != want[j].Version {
					t.Fatalf("round %d cache %d: survivor %d = %+v, want %+v", round, i, j, got[j], want[j])
				}
			}
			if inv := c.Invalidations(); inv != int64(len(before)-len(want)) {
				t.Fatalf("round %d cache %d: %d invalidations, want %d", round, i, inv, len(before)-len(want))
			}
		}
	}
	if invalidated == 0 || kept == 0 {
		t.Fatalf("vacuous run: %d invalidated, %d listed but kept", invalidated, kept)
	}
}
