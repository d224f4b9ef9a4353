package report

import (
	"math"
	"slices"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/db"
)

// TestCodecEdgeRoundTrips drives the report codecs through the payloads
// the steady-state protocol rarely emits: empty windows, single-entry
// windows, boundary-equal timestamps (an entry stamped exactly at the
// broadcast time), and a bit-sequences structure from a never-updated
// database. Each case must round-trip exactly and hit its analytic wire
// size (the roundTrip helper asserts both).
func TestCodecEdgeRoundTrips(t *testing.T) {
	p := params()
	emptyDB := db.New(p.N, false)
	oneDB := db.New(p.N, false)
	oneDB.Update(42, 100)

	cases := []struct {
		name  string
		rep   Report
		check func(t *testing.T, got Report)
	}{
		{
			name: "ts-empty-window",
			rep:  &TSReport{T: 500},
			check: func(t *testing.T, got Report) {
				r := got.(*TSReport)
				if r.T != 500 || len(r.Entries) != 0 || r.Dummy != nil {
					t.Fatalf("got %+v", r)
				}
			},
		},
		{
			name: "ts-single-entry-boundary-timestamp",
			// The entry's timestamp equals the broadcast time: the paper's
			// window predicate is strict (> T-wL), so boundary equality must
			// survive the wire bit-for-bit or clients disagree about
			// membership.
			rep: &TSReport{T: 500, Entries: []db.UpdateEntry{{ID: 7, TS: 500}}},
			check: func(t *testing.T, got Report) {
				r := got.(*TSReport)
				if len(r.Entries) != 1 || r.Entries[0].ID != 7 || r.Entries[0].TS != 500 {
					t.Fatalf("got %+v", r)
				}
			},
		},
		{
			name: "ts-ext-dummy-at-broadcast-time",
			rep:  &TSReport{T: 500, Entries: []db.UpdateEntry{{ID: 1, TS: 499}}, Dummy: &DummyRecord{Tlb: 500}},
			check: func(t *testing.T, got Report) {
				r := got.(*TSReport)
				if r.Kind() != KindTSExt || r.Dummy == nil || r.Dummy.Tlb != 500 {
					t.Fatalf("got %+v dummy %+v", r, r.Dummy)
				}
			},
		},
		{
			name: "at-empty",
			rep:  &ATReport{T: 500},
			check: func(t *testing.T, got Report) {
				if r := got.(*ATReport); len(r.IDs) != 0 || r.T != 500 {
					t.Fatalf("got %+v", r)
				}
			},
		},
		{
			name: "bs-empty-structure",
			rep:  &BSReport{T: 500, S: new(bitseq.Builder).Build(p.N, emptyDB)},
			check: func(t *testing.T, got Report) {
				r := got.(*BSReport)
				if r.S.TS0 != bitseq.Epoch {
					t.Fatalf("TS0 = %v, want epoch", r.S.TS0)
				}
				for i, seq := range r.S.Sequences() {
					if seq.Ones != 0 {
						t.Fatalf("level %d non-empty after round-trip", i)
					}
				}
			},
		},
		{
			name: "bs-single-item",
			rep:  &BSReport{T: 500, S: new(bitseq.Builder).Build(p.N, oneDB)},
			check: func(t *testing.T, got Report) {
				r := got.(*BSReport)
				if top := r.S.Sequences()[0]; top.Ones != 1 || top.Bits[0]&(1<<42) == 0 {
					t.Fatalf("top level %+v, want only bit 42", top)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, roundTrip(t, p, tc.rep))
		})
	}
}

// TestMaxSizeBSRoundTrip round-trips the largest report the evaluation
// can produce: a fully saturated bit-sequences structure over the paper's
// largest database (80000 items, every top-level slot marked). This is
// the codec's worst case for both wire length and mark density.
func TestMaxSizeBSRoundTrip(t *testing.T) {
	const n = 80000
	d := db.New(n, false)
	// More distinct updated items than the top level can mark: the
	// structure saturates and every level timestamp is real.
	for i := 0; i < n/2+100; i++ {
		d.Update(int32(i), float64(i+1))
	}
	s := new(bitseq.Builder).Build(n, d)
	seqs := s.Sequences()
	if seqs[0].Ones != n/2 {
		t.Fatalf("top level has %d marks, want saturated %d", seqs[0].Ones, n/2)
	}
	p := DefaultParams(n)
	rep := &BSReport{T: 1e6, S: s}
	got := roundTrip(t, p, rep).(*BSReport)
	gotSeqs := got.S.Sequences()
	if got.T != rep.T || got.S.N != n || len(gotSeqs) != len(seqs) || !slices.Equal(got.S.Depth, s.Depth) {
		t.Fatalf("round-trip shape mismatch: %+v", got)
	}
	for l := range seqs {
		if gotSeqs[l].Ones != seqs[l].Ones || gotSeqs[l].TS != seqs[l].TS {
			t.Fatalf("level %d mismatch: got ones=%d ts=%v, want ones=%d ts=%v",
				l, gotSeqs[l].Ones, gotSeqs[l].TS, seqs[l].Ones, seqs[l].TS)
		}
		for w := range seqs[l].Bits {
			if gotSeqs[l].Bits[w] != seqs[l].Bits[w] {
				t.Fatalf("level %d word %d differs", l, w)
			}
		}
	}
	// Truncation of the max-size frame must still fail loudly.
	w := bitio.NewWriter()
	if err := CorruptDecode(rep, p, w); err == nil {
		t.Fatal("truncated max-size BS report decoded cleanly")
	}
}

// TestSeqHeaderEdgeRoundTrips drives the broadcast sequence number in the
// frame header through its boundary values on every report kind: zero,
// the wraparound edge (MaxUint32, whose successor is 0), and the
// mid-range sign-flip edge of the serial-number comparison (1<<31). Each
// must survive the wire exactly — the client fence compares raw deltas,
// so one corrupted high bit would misread a duplicate as a 2^31 gap.
func TestSeqHeaderEdgeRoundTrips(t *testing.T) {
	p := params()
	reps := func() []Report {
		return []Report{
			&TSReport{T: 500, Entries: []db.UpdateEntry{{ID: 7, TS: 499}}},
			&ATReport{T: 500, IDs: []int32{4, 8}},
			&BSReport{T: 500, S: new(bitseq.Builder).Build(p.N, db.New(p.N, false))},
			&SIGReport{T: 500, Sigs: []uint64{0xdead, 0xbeef}, SigBits: 16},
		}
	}
	for _, seq := range []uint32{0, 1, 1<<31 - 1, 1 << 31, math.MaxUint32} {
		for _, rep := range reps() {
			SetSeq(rep, seq)
			got := roundTrip(t, p, rep)
			if SeqOf(got) != seq {
				t.Fatalf("%s: seq %d became %d across the wire", rep.Kind(), seq, SeqOf(got))
			}
			// A truncated frame must reject, not deliver a garbled header.
			w := bitio.NewWriter()
			if err := CorruptDecode(rep, p, w); err == nil {
				t.Fatalf("%s seq=%d: truncated frame decoded cleanly", rep.Kind(), seq)
			}
		}
	}
}

// TestSeqDeltaWraparound pins the RFC 1982-style serial arithmetic the
// client fence runs on: the successor of MaxUint32 is 0, and a report
// from "one period ago" stays a reorder even across the wrap.
func TestSeqDeltaWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int32
	}{
		{5, 5, 0},                           // duplicate
		{6, 5, 1},                           // clean successor
		{9, 5, 4},                           // gap of 3 missed reports
		{4, 5, -1},                          // reorder
		{0, math.MaxUint32, 1},              // successor across the wrap
		{math.MaxUint32, 0, -1},             // reorder across the wrap
		{3, math.MaxUint32 - 1, 5},          // gap across the wrap
		{math.MaxUint32, math.MaxUint32, 0}, // duplicate at the edge
	}
	for _, tc := range cases {
		if got := SeqDelta(tc.a, tc.b); got != tc.want {
			t.Fatalf("SeqDelta(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestTruncatedHeaderRejected: frames cut inside the header itself — mid
// kind tag, mid sequence number, before the marker flag — must all
// reject. Decode may not fabricate a report from a partial header.
func TestTruncatedHeaderRejected(t *testing.T) {
	p := params()
	rep := &TSReport{T: 500, Entries: []db.UpdateEntry{{ID: 7, TS: 499}}}
	SetSeq(rep, math.MaxUint32)
	w := bitio.NewWriter()
	Encode(rep, p, w)
	for _, bits := range []int{0, 1, kindTagBits, kindTagBits + 1, kindTagBits + seqBits - 1, kindTagBits + seqBits} {
		if _, err := Decode(p, bitio.NewReader(w.Bytes(), bits)); err == nil {
			t.Fatalf("frame truncated to %d bits decoded cleanly", bits)
		}
	}
}
