package bitseq

import (
	"slices"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
)

// structsEqual compares two structures field by field, the whole depth
// table included; the level bits are a function of those fields.
func structsEqual(a, b *Structure) bool {
	return a.N == b.N && a.TS0 == b.TS0 && slices.Equal(a.Levels, b.Levels) && slices.Equal(a.Depth, b.Depth)
}

// TestCodecEdgeCases round-trips the structures the normal path rarely
// produces: a never-updated database (every sequence empty), a single
// updated item, a fully saturated structure, and a non-power-of-two
// database size.
func TestCodecEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		updates int
	}{
		{"empty-never-updated", 64, 0},
		{"single-item", 64, 1},
		{"saturated", 64, 64},
		{"non-power-of-two", 100, 17},
		{"minimum-database", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := db.New(tc.n, false)
			for i := 0; i < tc.updates; i++ {
				d.Update(int32(i%tc.n), float64(i+1))
			}
			s := new(Builder).Build(tc.n, d)
			if tc.updates == 0 {
				if s.TS0 != Epoch {
					t.Fatalf("TS0 = %v, want epoch", s.TS0)
				}
				for i, seq := range s.Sequences() {
					if seq.Ones != 0 {
						t.Fatalf("level %d has %d marks in an empty structure", i, seq.Ones)
					}
				}
			}
			w := bitio.NewWriter()
			s.Encode(w)
			if w.Len() != s.SizeBits(64) {
				t.Fatalf("wire length %d, analytic %d", w.Len(), s.SizeBits(64))
			}
			got, err := Decode(tc.n, bitio.NewReader(w.Bytes(), w.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if !structsEqual(s, got) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
			}
		})
	}
}

// TestLocateBoundaryTimestamps pins the inclusive/exclusive boundaries of
// the client algorithm: a Tlb exactly equal to TS0 means the cache is
// fully valid, and a Tlb exactly equal to a level timestamp selects that
// level (TS <= Tlb, not <).
func TestLocateBoundaryTimestamps(t *testing.T) {
	// Enough distinct updates to overflow the top level's N/2 capacity, so
	// every level carries a real (non-epoch) timestamp.
	d := db.New(64, false)
	for i := 0; i < 40; i++ {
		d.Update(int32(i), float64(10*(i+1))) // updates at 10, 20, ..., 400
	}
	s := new(Builder).Build(64, d)

	// Tlb exactly at the most recent update: nothing changed after it.
	if a, _ := s.Locate(s.TS0, nil); a != AllValid {
		t.Fatalf("Locate(TS0) = %v, want all-valid", a)
	}
	// A hair before TS0 must not report all-valid.
	if a, _ := s.Locate(s.TS0-1e-9, nil); a == AllValid {
		t.Fatal("Locate(just below TS0) reported all-valid")
	}
	// Tlb exactly at the top level's timestamp selects it (boundary is
	// inclusive); one ulp below drops the whole cache.
	top := s.Levels[0].TS
	if top == Epoch {
		t.Fatalf("top level timestamp is the epoch; structure %+v", s)
	}
	if a, _ := s.Locate(top, nil); a != InvalidateSet {
		t.Fatalf("Locate(top TS) = %v, want invalidate-set", a)
	}
	if a, _ := s.Locate(top-1e-9, nil); a != DropAll {
		t.Fatalf("Locate(below top TS) = %v, want drop-all", a)
	}
	// Equality at a deeper level's timestamp must pick that deeper level:
	// its set is smaller, and soundness still holds because the level
	// marks everything updated after its TS.
	if len(s.Levels) > 1 && s.Levels[1].TS > s.Levels[0].TS {
		_, idsDeep := s.Locate(s.Levels[1].TS, nil)
		_, idsTop := s.Locate(s.Levels[1].TS-1e-9, nil)
		if len(idsDeep) > len(idsTop) {
			t.Fatalf("boundary Tlb invalidates more (%d) than the level above (%d)",
				len(idsDeep), len(idsTop))
		}
	}
}
