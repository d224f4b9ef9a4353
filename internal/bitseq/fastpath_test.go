package bitseq

import (
	"bytes"
	"fmt"
	"math"
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
// fast path: Level plus one memoised Depths table must reproduce the
// Figure 2 oracle (Locate) at every boundary Tlb — each level timestamp
// and the float just below it, TS0 and just below it, the epoch — and at
// random Tlbs, and the table must give every level's id set.
func TestLevelDepthsMatchLocate(t *testing.T) {
	src := rng.New(23)
	depth := make([]uint8, 1000)
	for i := range depth {
		depth[i] = 0xff // a fill must not trust the buffer it is handed
	}
	for _, n := range []int{2, 3, 64, 65, 1000} {
		for _, ops := range historySizes(n) {
			t.Run(fmt.Sprintf("N=%d/ops=%d", n, ops), func(t *testing.T) {
				d, now := randomHistory(src, n, ops)
				s := new(Builder).Build(n, d)
				s.Depths(depth)
				for l := range s.Seqs {
					want := s.IDsAtLevel(l, nil)
					if got := idsFromDepth(depth[:n], l); !equalIDs(got, want) {
						t.Fatalf("level %d: depth table gives %v, oracle %v", l, got, want)
					}
				}
				tlbs := []float64{Epoch, math.Nextafter(Epoch, math.Inf(-1)), s.TS0, math.Nextafter(s.TS0, math.Inf(-1))}
				for l := range s.Seqs {
					tlbs = append(tlbs, s.Seqs[l].TS, math.Nextafter(s.Seqs[l].TS, math.Inf(-1)))
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
					if got := idsFromDepth(depth[:n], level); !equalIDs(got, wantIDs) {
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

// TestBuilderMatchesSortBuild pins the sort-free Builder to the reference
// builder field by field, Ones included, with one Builder reused across
// database sizes in both directions so stale scratch would show.
func TestBuilderMatchesSortBuild(t *testing.T) {
	src := rng.New(31)
	var b Builder
	for _, n := range []int{1000, 2, 65, 3, 64, 10, 1000, 7} {
		for _, ops := range historySizes(n) {
			d, _ := randomHistory(src, n, ops)
			got, want := b.Build(n, d), sortBuild(n, d)
			if !structsEqual(got, want) {
				t.Fatalf("N=%d, %d updates:\n got %+v\nwant %+v", n, ops, got, want)
			}
		}
	}
}

// TestEncodeMatchesPerBitReference pins the word-level codec to the wire
// bytes of the per-bit reference encoder, across sizes that leave no
// tail, a tail in every level, and a one-word database, and checks the
// decode of those bytes.
func TestEncodeMatchesPerBitReference(t *testing.T) {
	src := rng.New(41)
	for _, n := range []int{2, 3, 63, 64, 65, 1000, 10000} {
		d, _ := randomHistory(src, n, n)
		s := new(Builder).Build(n, d)
		got, want := bitio.NewWriter(), bitio.NewWriter()
		s.Encode(got)
		encodePerBit(s, want)
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

// TestBuilderAllocatesOnlyTheReport pins the server-side cost: once a
// Builder has sized its scratch, a build allocates the Structure, its
// Seqs and each level's words, and nothing else.
func TestBuilderAllocatesOnlyTheReport(t *testing.T) {
	const n = 10000
	d, _ := randomHistory(rng.New(5), n, n/4)
	var b Builder
	levels := len(b.Build(n, d).Seqs)
	if got := testing.AllocsPerRun(20, func() { b.Build(n, d) }); got != float64(2+levels) {
		t.Fatalf("%v allocs per build, want %d (the structure, its levels and %d bit arrays)", got, 2+levels, levels)
	}
}
