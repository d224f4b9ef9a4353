package core

import (
	"testing"

	"mobicache/internal/bitseq"
	"mobicache/internal/db"
	"mobicache/internal/report"
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

// bsIndexOf returns the shared depth index of a client half that applies
// bit-sequences reports.
func bsIndexOf(t *testing.T, side ClientSide) *bsIndex {
	t.Helper()
	switch c := side.(type) {
	case *bsClient:
		return &c.idx
	case *adaptiveClient:
		return &c.bsIdx
	}
	t.Fatalf("%T carries no bit-sequences index", side)
	return nil
}

// TestBSReportIndexReuse is TestReportIndexReuse for bit-sequences
// reports: one ClientSide sees structures A, E, B, A, A, each handed to a
// fresh client holding items 7, 50 and N−1 with Tlb 391. That Tlb selects
// the level marking each structure's three newest updates, so item 7,
// which A marks only at shallower levels, must survive A. An id only A
// marks must survive B (the refill cleared A's depths), A must invalidate
// it again afterwards, and the never-updated structure E is all-valid and
// fills nothing.
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
			idx := bsIndexOf(t, side)
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
				if step.r != empty && idx.rep != step.r.S {
					t.Fatalf("%s: the cache walk did not index this report", step.name)
				}
			}
			if idx.rep == empty.S {
				t.Fatal("the all-valid report was indexed")
			}
		})
	}
}
