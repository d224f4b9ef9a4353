package report

import (
	"slices"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/db"
	"mobicache/internal/rng"
)

func params() Params { return DefaultParams(10000) }

func TestIDBits(t *testing.T) {
	if params().IDBits() != 14 {
		t.Fatalf("IDBits = %d", params().IDBits())
	}
	if DefaultParams(80000).IDBits() != 17 {
		t.Fatal("80000-item id width")
	}
}

func TestTSReportSize(t *testing.T) {
	p := params()
	r := &TSReport{T: 100, Entries: make([]db.UpdateEntry, 20)}
	// bT + 20*(log2 N + bT) = 64 + 20*78.
	if got := r.SizeBits(p); got != 64+20*78 {
		t.Fatalf("size = %d", got)
	}
	if r.Kind() != KindTS {
		t.Fatal("kind")
	}
}

func TestTSExtReportSize(t *testing.T) {
	p := params()
	r := &TSReport{T: 100, Entries: make([]db.UpdateEntry, 20), Dummy: &DummyRecord{Tlb: 40}}
	if got := r.SizeBits(p); got != 64+21*78 {
		t.Fatalf("size = %d", got)
	}
	if r.Kind() != KindTSExt {
		t.Fatal("kind")
	}
}

func TestATReportSize(t *testing.T) {
	p := params()
	r := &ATReport{T: 5, IDs: make([]int32, 7)}
	if got := r.SizeBits(p); got != 64+7*14 {
		t.Fatalf("size = %d", got)
	}
}

func TestBSReportSize(t *testing.T) {
	d := db.New(1024, false)
	d.Update(3, 1)
	r := &BSReport{T: 20, S: new(bitseq.Builder).Build(1024, d)}
	p := DefaultParams(1024)
	// bT + (2046 + 11*bT).
	want := 64 + 2046 + 11*64
	if got := r.SizeBits(p); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestControlMessageSizes(t *testing.T) {
	p := params()
	chk := &CheckRequest{Client: 1, Tlb: 9, IDs: make([]int32, 200)}
	if got := chk.SizeBits(p); got != 32+64+200*14 {
		t.Fatalf("check size = %d", got)
	}
	fb := &Feedback{Client: 1, Tlb: 9}
	if got := fb.SizeBits(p); got != 32+64 {
		t.Fatalf("feedback size = %d", got)
	}
	vr := &ValidityReport{T: 10, Client: 1, Valid: make([]bool, 200)}
	if got := vr.SizeBits(p); got != 32+64+200 {
		t.Fatalf("validity size = %d", got)
	}
	// The adaptive uplink message must be radically smaller than the
	// checking upload — the paper's central uplink-cost claim.
	if fb.SizeBits(p)*10 > chk.SizeBits(p) {
		t.Fatal("feedback not much smaller than check request")
	}
}

func roundTrip(t *testing.T, p Params, r Report) Report {
	t.Helper()
	w := bitio.NewWriter()
	Encode(r, p, w)
	wantBits := r.SizeBits(Params{N: p.N, TSBits: 64, HeaderBits: p.HeaderBits}) + FramingBits(r.Kind())
	if w.Len() != wantBits {
		t.Fatalf("wire length %d, analytic+framing %d", w.Len(), wantBits)
	}
	got, err := Decode(p, bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTSRoundTrip(t *testing.T) {
	p := params()
	r := &TSReport{T: 123.5, Entries: []db.UpdateEntry{{ID: 7, TS: 100}, {ID: 9999, TS: 120.25}}}
	got := roundTrip(t, p, r).(*TSReport)
	if got.T != r.T || len(got.Entries) != 2 || got.Entries[1].ID != 9999 ||
		got.Entries[1].TS != 120.25 || got.Dummy != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestTSExtRoundTrip(t *testing.T) {
	p := params()
	r := &TSReport{T: 200, Entries: []db.UpdateEntry{{ID: 1, TS: 150}},
		Dummy: &DummyRecord{Tlb: 60.5}}
	got := roundTrip(t, p, r).(*TSReport)
	if got.Dummy == nil || got.Dummy.Tlb != 60.5 {
		t.Fatalf("dummy lost: %+v", got)
	}
	if got.Kind() != KindTSExt {
		t.Fatal("kind after round trip")
	}
}

func TestEmptyTSRoundTrip(t *testing.T) {
	got := roundTrip(t, params(), &TSReport{T: 40}).(*TSReport)
	if len(got.Entries) != 0 {
		t.Fatalf("entries = %v", got.Entries)
	}
}

func TestATRoundTrip(t *testing.T) {
	r := &ATReport{T: 60, IDs: []int32{5, 6, 7}}
	got := roundTrip(t, params(), r).(*ATReport)
	if got.T != 60 || len(got.IDs) != 3 || got.IDs[2] != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestBSRoundTrip(t *testing.T) {
	src := rng.New(4)
	d := db.New(256, false)
	now := 0.0
	for i := 0; i < 400; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(256)), now)
	}
	p := DefaultParams(256)
	r := &BSReport{T: now + 1, S: new(bitseq.Builder).Build(256, d)}
	got := roundTrip(t, p, r).(*BSReport)
	if got.T != r.T || got.S.N != r.S.N || got.S.TS0 != r.S.TS0 || !slices.Equal(got.S.Levels, r.S.Levels) {
		t.Fatalf("bs header mismatch")
	}
	if !slices.Equal(got.S.Depth, r.S.Depth) {
		t.Fatalf("depth table: got %v, want %v", got.S.Depth, r.S.Depth)
	}
}

func TestDecodeGarbage(t *testing.T) {
	w := bitio.NewWriter()
	w.WriteBits(7, 3) // invalid kind
	if _, err := Decode(params(), bitio.NewReader(w.Bytes(), w.Len())); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := Decode(params(), bitio.NewReader(nil, 0)); err == nil {
		t.Fatal("empty buffer decoded")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := params()
	r := &TSReport{T: 1, Entries: []db.UpdateEntry{{ID: 1, TS: 1}, {ID: 2, TS: 2}}}
	w := bitio.NewWriter()
	Encode(r, p, w)
	// Chop the last entry.
	if _, err := Decode(p, bitio.NewReader(w.Bytes(), w.Len()-10)); err == nil {
		t.Fatal("truncated report decoded")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTS: "TS", KindBS: "BS", KindTSExt: "TS+w'", KindAT: "AT", KindSIG: "SIG",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string")
	}
}

func TestEncodeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Encode(fakeReport{}, params(), bitio.NewWriter())
}

type fakeReport struct{}

func (fakeReport) Kind() Kind          { return Kind(42) }
func (fakeReport) Time() float64       { return 0 }
func (fakeReport) SizeBits(Params) int { return 0 }

func TestSIGRoundTrip(t *testing.T) {
	r := &SIGReport{T: 77.5, SigBits: 32, Sigs: []uint64{1, 0xdeadbeef, 0xffffffff}}
	got := roundTrip(t, params(), r).(*SIGReport)
	if got.T != 77.5 || got.SigBits != 32 || len(got.Sigs) != 3 ||
		got.Sigs[1] != 0xdeadbeef || got.Sigs[2] != 0xffffffff {
		t.Fatalf("got %+v", got)
	}
}

func TestSIGDecodeRejectsBadWidth(t *testing.T) {
	w := bitio.NewWriter()
	w.WriteBits(uint64(KindSIG), 3)
	w.WriteFloat(1)
	w.WriteBits(0, 8) // zero-width signatures: malformed
	w.WriteBits(0, 24)
	if _, err := Decode(params(), bitio.NewReader(w.Bytes(), w.Len())); err == nil {
		t.Fatal("zero-width SIG decoded")
	}
}
