package core

import (
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/db"
	"mobicache/internal/report"
	"mobicache/internal/rng"
)

// TestInvalidationWalksAgree pins the two walks applyTSEntries chooses
// between: for random cache contents and reports, the cache walk and the
// report walk leave identical caches — same entries in the same MRU
// order, same timestamps and versions, same number of invalidations — and
// both match the Figure 1 rule computed directly. Timestamps come from a
// five-value set so cached.TS == e.TS, which must not invalidate, is
// frequent; occupancy sweeps 0..capacity, report length 0..N, and most ids
// of each side are absent from the other.
func TestInvalidationWalksAgree(t *testing.T) {
	const items, capacity = 130, 10 // the id space spans three bitmap words
	src := rng.New(12)
	x := &tsIndex{n: items} // one index shared by every call, as one ClientSide shares it
	walks := []struct {
		name string
		run  func(c *cache.Cache, r *report.TSReport)
	}{
		{"cache walk", x.invalidateByCache},
		{"report walk", func(c *cache.Cache, r *report.TSReport) { invalidateByReport(c, r.Entries) }},
	}
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

		fill := func() *cache.Cache {
			c := cache.New(capacity, items)
			draws := src.Split(uint64(round)) // the same contents on every call
			for c.Len() < occupancy {
				c.Put(int32(draws.Intn(items)), float64(1+draws.Intn(5)), int32(draws.Intn(100)))
			}
			return c
		}
		before := fill().Entries(nil)
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

		for _, w := range walks {
			c := fill()
			w.run(c, r)
			got := c.Entries(nil)
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d survivors, want %d\ngot  %v\nwant %v", round, w.name, len(got), len(want), got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("round %d %s: survivor %d = %+v, want %+v", round, w.name, j, got[j], want[j])
				}
			}
			if inv := len(before) - c.Len(); inv != len(before)-len(want) {
				t.Fatalf("round %d %s: %d invalidations, want %d", round, w.name, inv, len(before)-len(want))
			}
		}
	}
	if invalidated == 0 || kept == 0 {
		t.Fatalf("vacuous run: %d invalidated, %d listed but kept", invalidated, kept)
	}
}
