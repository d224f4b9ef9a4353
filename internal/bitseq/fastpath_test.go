package bitseq

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
	"mobicache/internal/rng"
)

// randomHistory applies ops updates at exponential gaps to an n-item
// database and returns it with the last update time.
func randomHistory(src *rng.Source, n, ops int) (*db.Database, float64) {
	d := db.New(n, false)
	now := 0.0
	for i := 0; i < ops; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(n)), now)
	}
	return d, now
}

// historySizes are the update counts each size is tried with: none, a
// few, about the top level's N/2 capacity, and enough to overflow it.
func historySizes(n int) []int { return []int{0, 1, n / 3, n / 2, 2 * n, 5 * n} }

// TestLevelDepthsMatchLocate is the differential check of the client
// fast path: Level plus the structure's Depth table must reproduce the
// Figure 2 oracle (Locate, which reads the level bits) at every boundary
// Tlb — each level timestamp and the float just below it, TS0 and just
// below it, the epoch — and at random Tlbs, and the table must give every
// level's id set.
func TestLevelDepthsMatchLocate(t *testing.T) {
	src := rng.New(23)
	for _, n := range []int{2, 3, 64, 65, 1000} {
		for _, ops := range historySizes(n) {
			t.Run(fmt.Sprintf("N=%d/ops=%d", n, ops), func(t *testing.T) {
				d, now := randomHistory(src, n, ops)
				s := new(Builder).Build(n, d)
				for l := range s.Levels {
					want := s.IDsAtLevel(l, nil)
					if got := idsFromDepth(s.Depth, l); !equalIDs(got, want) {
						t.Fatalf("level %d: depth table gives %v, oracle %v", l, got, want)
					}
				}
				tlbs := []float64{Epoch, math.Nextafter(Epoch, math.Inf(-1)), s.TS0, math.Nextafter(s.TS0, math.Inf(-1))}
				for _, lv := range s.Levels {
					tlbs = append(tlbs, lv.TS, math.Nextafter(lv.TS, math.Inf(-1)))
				}
				for i := 0; i < 20; i++ {
					tlbs = append(tlbs, (now+2)*src.Float64()-1)
				}
				for _, tlb := range tlbs {
					wantAct, wantIDs := s.Locate(tlb, nil)
					act, level := s.Level(tlb)
					if act != wantAct {
						t.Fatalf("tlb %v: Level says %v, Locate %v", tlb, act, wantAct)
					}
					if act != InvalidateSet {
						continue
					}
					if got := idsFromDepth(s.Depth, level); !equalIDs(got, wantIDs) {
						t.Fatalf("tlb %v: level %d invalidates %v, Locate %v", tlb, level, got, wantIDs)
					}
				}
			})
		}
	}
}

func idsFromDepth(depth []uint8, level int) []int32 {
	var ids []int32
	for id, d := range depth {
		if int(d) > level {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuilderMatchesSortBuild pins the index-copying Builder, through the
// level bits Sequences derives, to the reference builder field by field,
// Ones included, with one Builder reused across database sizes in both
// directions, and then builds after every single update of one growing
// history, so the database's incremental index is checked at each step
// rather than only at the end.
func TestBuilderMatchesSortBuild(t *testing.T) {
	src := rng.New(31)
	var b Builder
	for _, n := range []int{1000, 2, 65, 3, 64, 10, 1000, 7} {
		for _, ops := range historySizes(n) {
			d, _ := randomHistory(src, n, ops)
			got, want := wireOf(b.Build(n, d)), sortBuild(n, d)
			if !got.equal(want) {
				t.Fatalf("N=%d, %d updates:\n got %+v\nwant %+v", n, ops, got, want)
			}
		}
	}
	for _, n := range []int{2, 3, 7, 64, 65, 1000} {
		d := db.New(n, false)
		var b Builder
		prev := b.Build(n, d)
		now, last := 0.0, int32(0)
		for i := 0; i < 3*n; i++ {
			// Every third update repeats the most recent id, so the
			// one-item levels see their only item updated again.
			id := int32(src.Intn(n))
			if i%3 == 2 {
				id = last
			}
			now += src.Exp(1)
			d.Update(id, now)
			last = id
			got := b.Build(n, d)
			if got == prev {
				t.Fatalf("N=%d, update %d: the build after an update returned the previous structure", n, i)
			}
			if want := sortBuild(n, d); !wireOf(got).equal(want) {
				t.Fatalf("N=%d, after update %d:\n got %+v\nwant %+v", n, i, got, want)
			}
			if again := b.Build(n, d); again != got {
				t.Fatalf("N=%d, update %d: a build with no update since did not reuse the structure", n, i)
			}
			prev = got
		}
	}
}

// TestBuilderReuseIsPerSource checks that the reuse key includes the
// source: two databases with equal update counts but different histories
// each get their own structure from one Builder, also when it alternates
// between them.
func TestBuilderReuseIsPerSource(t *testing.T) {
	const n = 64
	a, c := db.New(n, false), db.New(n, false)
	for i := 0; i < 20; i++ {
		a.Update(int32(i), float64(i))
		c.Update(int32(n-1-i), float64(i))
	}
	if a.Updates() != c.Updates() {
		t.Fatal("setup: update counts differ")
	}
	var b Builder
	for round := 0; round < 2; round++ {
		for _, d := range []*db.Database{a, c} {
			got := b.Build(n, d)
			if !wireOf(got).equal(sortBuild(n, d)) {
				t.Fatalf("round %d: the build for one database carries another's structure", round)
			}
		}
	}
}

// TestEncodeMatchesPerBitReference pins the word-level codec to the wire
// bytes the per-bit reference encoder writes for the reference builder's
// bits, across sizes that leave no tail, a tail in every level, and a
// one-word database, and checks the decode of those bytes.
func TestEncodeMatchesPerBitReference(t *testing.T) {
	src := rng.New(41)
	for _, n := range []int{2, 3, 63, 64, 65, 1000, 10000} {
		d, _ := randomHistory(src, n, n)
		s := new(Builder).Build(n, d)
		got, want := bitio.NewWriter(), bitio.NewWriter()
		s.Encode(got)
		encodePerBit(sortBuild(n, d), want)
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("N=%d: word-level encoding (%d bits) differs from the per-bit reference (%d bits)", n, got.Len(), want.Len())
		}
		back, err := Decode(n, bitio.NewReader(got.Bytes(), got.Len()))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if !structsEqual(back, s) {
			t.Fatalf("N=%d: round-trip mismatch", n)
		}
	}
}

// TestBuilderAllocatesOnlyTheReport pins the server-side cost: a build
// after an update allocates the Structure, its level headers and its depth
// table, and nothing else; a build with no update since the last one
// returns that structure and allocates nothing.
func TestBuilderAllocatesOnlyTheReport(t *testing.T) {
	const n = 10000
	src := rng.New(5)
	d, now := randomHistory(src, n, n/4)
	var b Builder
	b.Build(n, d)
	changed := testing.AllocsPerRun(20, func() {
		now += 1
		d.Update(int32(src.Intn(n)), now)
		b.Build(n, d)
	})
	if changed != 3 {
		t.Fatalf("%v allocs per build after an update, want 3 (the structure, its level headers and its depth table)", changed)
	}
	if got := testing.AllocsPerRun(20, func() { b.Build(n, d) }); got != 0 {
		t.Fatalf("%v allocs per build of an unchanged database, want 0", got)
	}
}

// TestStructureOwnsItsDepth checks that a built structure is a snapshot:
// updates the database applies afterwards, which move its depth index,
// leave the structure's Depth, and so the report in flight, unchanged.
func TestStructureOwnsItsDepth(t *testing.T) {
	const n = 64
	src := rng.New(13)
	d, now := randomHistory(src, n, n)
	s := new(Builder).Build(n, d)
	before := slices.Clone(s.Depth)
	for i := 0; i < n; i++ {
		now += src.Exp(1)
		d.Update(int32(i), now)
	}
	if slices.Equal(d.DepthIndex(), before) {
		t.Fatal("vacuous: the updates left the database's depth index as it was")
	}
	if !slices.Equal(s.Depth, before) {
		t.Fatalf("the structure's depth table followed its database:\n got %v\nwant %v", s.Depth, before)
	}
}

// TestDecodeRebuildsDepth checks the wire round trip on the depth table:
// for random and saturated histories, Decode(Encode(s)).Depth equals
// s.Depth, and both equal the depth table read off a recency walk.
func TestDecodeRebuildsDepth(t *testing.T) {
	src := rng.New(17)
	for _, n := range []int{2, 3, 7, 64, 65, 1000, 10000} {
		saturated := db.New(n, false)
		for i := 0; i < n; i++ {
			saturated.Update(int32(i), float64(i+1))
		}
		histories := []*db.Database{saturated}
		for _, ops := range historySizes(n) {
			d, _ := randomHistory(src, n, ops)
			histories = append(histories, d)
		}
		for h, d := range histories {
			s := new(Builder).Build(n, d)
			want := walkDepth(n, d)
			if !slices.Equal(s.Depth, want) {
				t.Fatalf("N=%d history %d: built depth %v, recency walk %v", n, h, s.Depth, want)
			}
			w := bitio.NewWriter()
			s.Encode(w)
			back, err := Decode(n, bitio.NewReader(w.Bytes(), w.Len()))
			if err != nil {
				t.Fatalf("N=%d history %d: %v", n, h, err)
			}
			if !slices.Equal(back.Depth, want) || !structsEqual(back, s) {
				t.Fatalf("N=%d history %d: decoded depth %v, recency walk %v", n, h, back.Depth, want)
			}
		}
	}
}
