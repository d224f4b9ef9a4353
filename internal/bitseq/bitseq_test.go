package bitseq

import (
	"testing"
	"testing/quick"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
	"mobicache/internal/rng"
)

func build(t *testing.T, n int, updates ...[2]float64) (*Structure, *db.Database) {
	t.Helper()
	d := db.New(n, false)
	for _, u := range updates {
		d.Update(int32(u[0]), u[1])
	}
	return new(Builder).Build(n, d), d
}

func TestEmptyDatabase(t *testing.T) {
	st, _ := build(t, 16)
	if st.TS0 != Epoch {
		t.Fatalf("TS0 = %v", st.TS0)
	}
	if act, _ := st.Locate(0, nil); act != AllValid {
		t.Fatalf("action = %v", act)
	}
	if len(st.Levels) != 4 { // 16, 8, 4, 2
		t.Fatalf("levels = %d", len(st.Levels))
	}
}

func TestLevelShapes(t *testing.T) {
	st, _ := build(t, 16, [2]float64{3, 10})
	wantLens := []int{16, 8, 4, 2}
	for i, w := range wantLens {
		if st.Levels[i].Len != w {
			t.Fatalf("level %d len = %d, want %d", i, st.Levels[i].Len, w)
		}
	}
	// One updated item: marked at every level (1 <= size/2 always here).
	seqs := st.Sequences()
	for i := range seqs {
		if seqs[i].Ones != 1 {
			t.Fatalf("level %d ones = %d", i, seqs[i].Ones)
		}
	}
	if !seqs[0].get(3) {
		t.Fatal("top level did not mark item 3")
	}
}

func TestSingleUpdateLocate(t *testing.T) {
	st, _ := build(t, 16, [2]float64{3, 10})
	// Client current through time 10: nothing to do.
	if act, _ := st.Locate(10, nil); act != AllValid {
		t.Fatalf("tlb=10: %v", act)
	}
	// Client last heard a report at 5: item 3 must be invalidated.
	act, ids := st.Locate(5, nil)
	if act != InvalidateSet || len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("tlb=5: %v %v", act, ids)
	}
}

func TestMarksAreMostRecentHalf(t *testing.T) {
	// 8 items, 6 updated; top level (8 bits) marks at most 4.
	st, _ := build(t, 8,
		[2]float64{0, 1}, [2]float64{1, 2}, [2]float64{2, 3},
		[2]float64{3, 4}, [2]float64{4, 5}, [2]float64{5, 6})
	if ones := st.Sequences()[0].Ones; ones != 4 {
		t.Fatalf("top ones = %d", ones)
	}
	ids := st.IDsAtLevel(0, nil)
	want := []int32{2, 3, 4, 5} // the 4 most recent
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	// TS(B_n) is the 5th most recent item's update time (item 1 at t=2).
	if st.Levels[0].TS != 2 {
		t.Fatalf("TS(Bn) = %v", st.Levels[0].TS)
	}
	// A client older than TS(B_n) must drop everything.
	if act, _ := st.Locate(1.5, nil); act != DropAll {
		t.Fatalf("too-old client action = %v", act)
	}
}

func TestDeeperLevelsHalve(t *testing.T) {
	st, _ := build(t, 16,
		[2]float64{10, 1}, [2]float64{11, 2}, [2]float64{12, 3}, [2]float64{13, 4},
		[2]float64{14, 5}, [2]float64{15, 6}, [2]float64{0, 7}, [2]float64{1, 8})
	// Top marks 8 most recent (all 8), level 1 (8 bits) marks 4, level 2
	// marks 2, level 3 marks 1.
	seqs := st.Sequences()
	for i, want := range []int{8, 4, 2, 1} {
		if seqs[i].Ones != want {
			t.Fatalf("level %d ones = %d, want %d", i, seqs[i].Ones, want)
		}
	}
	// Level 2's marked ids are the 2 most recent: items 0 and 1.
	ids := st.IDsAtLevel(2, nil)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("level-2 ids = %v", ids)
	}
	// Level timestamps increase with depth.
	for i := 1; i < len(st.Levels); i++ {
		if st.Levels[i].TS < st.Levels[i-1].TS {
			t.Fatalf("timestamps not monotone: %v", st.Levels)
		}
	}
}

func TestLocatePicksSmallestSufficientLevel(t *testing.T) {
	st, _ := build(t, 16,
		[2]float64{10, 1}, [2]float64{11, 2}, [2]float64{12, 3}, [2]float64{13, 4},
		[2]float64{14, 5}, [2]float64{15, 6}, [2]float64{0, 7}, [2]float64{1, 8})
	// Tlb = 6.5: only items 0 (t=7) and 1 (t=8) updated after. Level 2
	// has TS = 6 <= 6.5, marks {0, 1}; level 3 has TS = 7 > 6.5.
	act, ids := st.Locate(6.5, nil)
	if act != InvalidateSet {
		t.Fatalf("action = %v", act)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	// Tlb = 7: only item 1 updated after; deepest level TS=7 qualifies.
	_, ids = st.Locate(7, nil)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("tlb=7 ids = %v", ids)
	}
}

func TestSizeBitsFormula(t *testing.T) {
	st, _ := build(t, 1024, [2]float64{1, 1})
	// sum of level lengths = 1024+512+...+2 = 2046; 11 timestamps
	// (10 levels + dummy).
	want := 2046 + 11*64
	if got := st.SizeBits(64); got != want {
		t.Fatalf("SizeBits = %d, want %d", got, want)
	}
}

func TestEncodedLengthMatchesSizeBits(t *testing.T) {
	src := rng.New(5)
	d := db.New(128, false)
	now := 0.0
	for i := 0; i < 300; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(128)), now)
	}
	st := new(Builder).Build(128, d)
	w := bitio.NewWriter()
	st.Encode(w)
	if w.Len() != st.SizeBits(64) {
		t.Fatalf("encoded %d bits, analytic %d", w.Len(), st.SizeBits(64))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src := rng.New(9)
	d := db.New(64, false)
	now := 0.0
	for i := 0; i < 100; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(64)), now)
	}
	st := new(Builder).Build(64, d)
	w := bitio.NewWriter()
	st.Encode(w)
	got, err := Decode(64, bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.TS0 != st.TS0 || len(got.Levels) != len(st.Levels) {
		t.Fatalf("header mismatch: %+v vs %+v", got, st)
	}
	gotSeqs, wantSeqs := got.Sequences(), st.Sequences()
	for l := range wantSeqs {
		if gotSeqs[l].TS != wantSeqs[l].TS || gotSeqs[l].Ones != wantSeqs[l].Ones {
			t.Fatalf("level %d mismatch", l)
		}
		for b := 0; b < wantSeqs[l].Len; b++ {
			if gotSeqs[l].get(b) != wantSeqs[l].get(b) {
				t.Fatalf("bit %d of level %d differs", b, l)
			}
		}
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := Decode(64, bitio.NewReader(nil, 0)); err == nil {
		t.Fatal("decode of empty buffer succeeded")
	}
}

func TestNonPowerOfTwoN(t *testing.T) {
	st, _ := build(t, 10, [2]float64{7, 3}, [2]float64{9, 5})
	// Sizes: 10, 5, 2.
	if len(st.Levels) != 3 || st.Levels[1].Len != 5 || st.Levels[2].Len != 2 {
		t.Fatalf("levels = %+v", st.Levels)
	}
	act, ids := st.Locate(0, nil)
	if act != InvalidateSet || len(ids) != 2 {
		t.Fatalf("locate = %v %v", act, ids)
	}
}

func TestBuildPanicsOnTinyDB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	new(Builder).Build(1, db.New(1, false))
}

// The paper's core guarantee, as a property test over random histories:
// for any update history and any Tlb, the action returned by Locate is
// sound — a client that invalidates as instructed never retains an item
// updated after Tlb.
func TestSoundnessProperty(t *testing.T) {
	src := rng.New(77)
	f := func(nRaw, opsRaw uint16, cutRaw uint8) bool {
		n := int(nRaw)%200 + 2
		d := db.New(n, false)
		now := 0.0
		last := make([]float64, n)
		for i := range last {
			last[i] = -1
		}
		ops := int(opsRaw) % 400
		for i := 0; i < ops; i++ {
			now += src.Exp(1)
			id := int32(src.Intn(n))
			d.Update(id, now)
			last[id] = now
		}
		st := new(Builder).Build(n, d)
		tlb := now * float64(cutRaw) / 255
		act, ids := st.Locate(tlb, nil)
		switch act {
		case DropAll:
			return true // trivially sound
		case AllValid:
			// Sound only if nothing was updated after tlb.
			for _, ts := range last {
				if ts > tlb {
					return false
				}
			}
			return true
		case InvalidateSet:
			inSet := make(map[int32]bool, len(ids))
			for _, id := range ids {
				inSet[id] = true
			}
			for id, ts := range last {
				if ts > tlb && !inSet[int32(id)] {
					return false
				}
			}
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Over-invalidation bound: the located set never exceeds twice the number
// of items actually updated after Tlb (when not forced to drop).
func TestOverInvalidationBound(t *testing.T) {
	src := rng.New(88)
	for trial := 0; trial < 200; trial++ {
		n := src.Intn(200) + 4
		d := db.New(n, false)
		now := 0.0
		last := make([]float64, n)
		for i := range last {
			last[i] = -1
		}
		for i := 0; i < src.Intn(500); i++ {
			now += src.Exp(1)
			id := int32(src.Intn(n))
			d.Update(id, now)
			last[id] = now
		}
		st := new(Builder).Build(n, d)
		tlb := now * src.Float64()
		act, ids := st.Locate(tlb, nil)
		if act != InvalidateSet {
			continue
		}
		actual := 0
		for _, ts := range last {
			if ts > tlb {
				actual++
			}
		}
		if actual == 0 {
			// The chosen level marks at least one item; a zero-update
			// client should have hit AllValid instead.
			if st.TS0 > tlb {
				t.Fatalf("trial %d: TS0=%v > tlb=%v but no stale items", trial, st.TS0, tlb)
			}
			continue
		}
		if len(ids) > 2*actual {
			t.Fatalf("trial %d: invalidated %d for %d stale (n=%d, tlb=%v)",
				trial, len(ids), actual, n, tlb)
		}
	}
}

// IDsAtLevel consistency: level l's id set must be a superset of level
// l+1's, and Ones counts must match the extracted sets.
func TestLevelNesting(t *testing.T) {
	src := rng.New(99)
	d := db.New(100, false)
	now := 0.0
	for i := 0; i < 1000; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(100)), now)
	}
	st := new(Builder).Build(100, d)
	prev := map[int32]bool{}
	seqs := st.Sequences()
	for l := len(seqs) - 1; l >= 0; l-- {
		ids := st.IDsAtLevel(l, nil)
		if len(ids) != seqs[l].Ones {
			t.Fatalf("level %d: %d ids vs %d ones", l, len(ids), seqs[l].Ones)
		}
		cur := map[int32]bool{}
		for _, id := range ids {
			cur[id] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("level %d missing id %d marked at deeper level", l, id)
			}
		}
		prev = cur
	}
}
