package core

import (
	"testing"

	"mobicache/internal/bitseq"
	"mobicache/internal/db"
	"mobicache/internal/report"
	"mobicache/internal/rng"
)

// indexOf returns the shared report index of a TS-family client half.
func indexOf(t *testing.T, side ClientSide) *tsIndex {
	t.Helper()
	switch c := side.(type) {
	case *tsClient:
		return &c.idx
	case *adaptiveClient:
		return &c.idx
	}
	t.Fatalf("%T carries no report index", side)
	return nil
}

// TestReportIndexReuse drives one ClientSide through reports A, E, B, A,
// A — the interleaving two multicell servers or a duplicating delivery
// layer produce — handing each report to a fresh client that holds items
// 7, 50 and N−1 at an old timestamp. Each cache holds fewer items than A
// or B lists, so those reports take the cache walk through the shared
// index. An id only A lists must survive B (the rebuild cleared A's
// entries), A must invalidate it again afterwards, and the empty report
// E touches nothing.
func TestReportIndexReuse(t *testing.T) {
	const n = 100
	a := &report.TSReport{T: 400, WindowStart: 200, Entries: []db.UpdateEntry{
		{ID: 7, TS: 390}, {ID: 20, TS: 390}, {ID: 21, TS: 390}, {ID: n - 1, TS: 390},
	}}
	b := &report.TSReport{T: 400, WindowStart: 200, Entries: []db.UpdateEntry{
		{ID: 30, TS: 395}, {ID: 31, TS: 395}, {ID: 32, TS: 395}, {ID: 50, TS: 395},
	}}
	e := &report.TSReport{T: 400, WindowStart: 200}
	steps := []struct {
		name      string
		r         *report.TSReport
		survivors []int32 // MRU first
	}{
		{"A", a, []int32{50}},
		{"empty", e, []int32{n - 1, 50, 7}},
		{"B", b, []int32{n - 1, 7}},
		{"A again", a, []int32{50}},
		{"A repeated", a, []int32{50}},
	}
	for _, s := range []Scheme{TS(), AAW()} {
		t.Run(s.Name(), func(t *testing.T) {
			side := s.NewClient(DefaultParams(n))
			idx := indexOf(t, side)
			for _, step := range steps {
				st := newClientState(1, 10, n)
				st.Tlb = 390
				for _, id := range []int32{7, 50, n - 1} {
					st.Cache.Put(id, 100, 1)
				}
				out := side.HandleReport(st, step.r, 400)
				if !out.Ready || st.Drops != 0 || st.Tlb != 400 {
					t.Fatalf("%s: outcome %+v, Tlb %v", step.name, out, st.Tlb)
				}
				got := st.Cache.Entries(nil)
				if len(got) != len(step.survivors) {
					t.Fatalf("%s: survivors %v, want ids %v", step.name, got, step.survivors)
				}
				for i, e := range got {
					if e.ID != step.survivors[i] || e.TS != 400 {
						t.Fatalf("%s: survivor %d = %+v, want id %d stamped 400", step.name, i, e, step.survivors[i])
					}
				}
				if len(step.r.Entries) > 0 && idx.rep != step.r {
					t.Fatalf("%s: the cache walk did not index this report", step.name)
				}
			}
		})
	}
}

// TestBSReportIndexReuse is TestReportIndexReuse for bit-sequences
// reports: one ClientSide, reused across calls, sees structures A, E,
// B, A, A, each handed to a fresh client holding items 7, 50 and N−1
// with Tlb 391. That Tlb selects the level
// marking each structure's three newest updates, so item 7, which A marks
// only at shallower levels, must survive A. An id only A marks must
// survive B, A must invalidate it again afterwards, and the never-updated
// structure E is all-valid.
func TestBSReportIndexReuse(t *testing.T) {
	const n = 100
	structure := func(ids ...int32) *bitseq.Structure {
		d := db.New(n, false)
		for i, id := range ids {
			d.Update(id, float64(391+i))
		}
		return new(bitseq.Builder).Build(n, d)
	}
	a := &report.BSReport{T: 400, S: structure(7, 20, 21, n-1)}
	b := &report.BSReport{T: 400, S: structure(30, 31, 32, 50)}
	empty := &report.BSReport{T: 400, S: structure()}
	steps := []struct {
		name      string
		r         *report.BSReport
		survivors []int32 // MRU first
	}{
		{"A", a, []int32{50, 7}},
		{"empty", empty, []int32{n - 1, 50, 7}},
		{"B", b, []int32{n - 1, 7}},
		{"A again", a, []int32{50, 7}},
		{"A repeated", a, []int32{50, 7}},
	}
	for _, s := range []Scheme{BS(), AFW()} {
		t.Run(s.Name(), func(t *testing.T) {
			side := s.NewClient(DefaultParams(n))
			for _, step := range steps {
				st := newClientState(1, 10, n)
				st.Tlb = 391
				for _, id := range []int32{7, 50, n - 1} {
					st.Cache.Put(id, 100, 1)
				}
				out := side.HandleReport(st, step.r, 400)
				if !out.Ready || st.Drops != 0 || st.Tlb != 400 {
					t.Fatalf("%s: outcome %+v, Tlb %v", step.name, out, st.Tlb)
				}
				got := st.Cache.Entries(nil)
				if len(got) != len(step.survivors) {
					t.Fatalf("%s: survivors %v, want ids %v", step.name, got, step.survivors)
				}
				for i, e := range got {
					if e.ID != step.survivors[i] || e.TS != 400 {
						t.Fatalf("%s: survivor %d = %+v, want id %d stamped 400", step.name, i, e, step.survivors[i])
					}
				}
			}
		})
	}
}

// TestBSSharedStructureMatchesCopies: a Builder hands back the same
// structure for every broadcast with no update since the last, so
// successive reports share one structure, depth table included. One
// ClientSide fed those shared reports must leave every client exactly as
// another ClientSide fed a fresh build of each report does, for clients
// whose Tlb falls at each of the last few broadcasts or long before them.
// Most periods carry no update, as at Table 1's rates, and some reused
// structures must invalidate part of a cache so the comparison is not
// vacuous.
func TestBSSharedStructureMatchesCopies(t *testing.T) {
	const n, capacity, period = 100, 30, 20.0
	for _, s := range []Scheme{BS(), AFW()} {
		t.Run(s.Name(), func(t *testing.T) {
			src := rng.New(3)
			d := db.New(n, false)
			var b bitseq.Builder
			shared, fresh := s.NewClient(DefaultParams(n)), s.NewClient(DefaultParams(n))
			var prev *bitseq.Structure
			reused, partial := 0, 0
			for k := 1; k <= 80; k++ {
				now := float64(k) * period
				if src.Float64() < 0.4 {
					m := 1 + src.Intn(8)
					for j := 1; j <= m; j++ {
						d.Update(int32(src.Intn(n)), now-period+period*float64(j)/float64(m+1))
					}
				}
				sr := &report.BSReport{T: now, S: b.Build(n, d)}
				fr := &report.BSReport{T: now, S: new(bitseq.Builder).Build(n, d)}
				isReuse := sr.S == prev
				if isReuse {
					reused++
				}
				prev = sr.S
				for _, back := range []float64{1, 2, 3, 6, 40} {
					tlb := max(now-back*period, 0)
					sst, fst := newClientState(1, capacity, n), newClientState(1, capacity, n)
					for i := 0; i < capacity; i++ {
						id := int32((i*37 + k) % n)
						sst.Cache.Put(id, tlb, 1)
						fst.Cache.Put(id, tlb, 1)
					}
					sst.Tlb, fst.Tlb = tlb, tlb
					so, fo := shared.HandleReport(sst, sr, now), fresh.HandleReport(fst, fr, now)
					if so != fo || sst.Tlb != fst.Tlb || sst.Drops != fst.Drops || sst.Salvages != fst.Salvages {
						t.Fatalf("broadcast %d, Tlb %v: shared %+v (Tlb %v, %d drops, %d salvages), fresh %+v (Tlb %v, %d drops, %d salvages)",
							k, tlb, so, sst.Tlb, sst.Drops, sst.Salvages, fo, fst.Tlb, fst.Drops, fst.Salvages)
					}
					got, want := sst.Cache.Entries(nil), fst.Cache.Entries(nil)
					if len(got) != len(want) {
						t.Fatalf("broadcast %d, Tlb %v: shared report leaves %v, fresh copy %v", k, tlb, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("broadcast %d, Tlb %v: shared report leaves %v, fresh copy %v", k, tlb, got, want)
						}
					}
					if isReuse && len(got) > 0 && len(got) < capacity {
						partial++
					}
				}
			}
			if reused == 0 || partial == 0 {
				t.Fatalf("vacuous: %d reused structures, %d partial invalidations by one", reused, partial)
			}
		})
	}
}
