package report

import (
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/db"
)

func TestMarkerRoundTripAllKinds(t *testing.T) {
	p := params()
	m := RecoveryMarker{Epoch: 3, TrustFloor: 512.25}
	d := db.New(256, false)
	d.Update(3, 600)
	reports := []Report{
		&TSReport{T: 700, Entries: []db.UpdateEntry{{ID: 7, TS: 650}}},
		&TSReport{T: 700, Entries: []db.UpdateEntry{{ID: 7, TS: 650}},
			Dummy: &DummyRecord{Tlb: 540}},
		&ATReport{T: 700, IDs: []int32{5, 6}},
		&BSReport{T: 700, S: new(bitseq.Builder).Build(256, d)},
		&SIGReport{T: 700, SigBits: 16, Sigs: []uint64{9, 0xbeef}},
	}
	for _, r := range reports {
		rp := p
		if r.Kind() == KindBS {
			rp = DefaultParams(256)
		}
		ApplyRecovery(r, m)
		got := roundTrip(t, rp, r)
		gm := MarkerOf(got)
		if gm == nil {
			t.Fatalf("%v: marker lost in round trip", r.Kind())
		}
		if *gm != m {
			t.Fatalf("%v: marker %+v, want %+v", r.Kind(), *gm, m)
		}
	}
}

func TestMarkerOfUnmarkedIsNil(t *testing.T) {
	if MarkerOf(&TSReport{T: 1}) != nil || MarkerOf(&ATReport{T: 1}) != nil {
		t.Fatal("phantom marker")
	}
	if MarkerOf(fakeReport{}) != nil {
		t.Fatal("marker on unknown report type")
	}
}

func TestMarkerBitsAccounting(t *testing.T) {
	p := params()
	r := &TSReport{T: 100, Entries: make([]db.UpdateEntry, 5)}
	plain := r.SizeBits(p)
	ApplyRecovery(r, RecoveryMarker{Epoch: 1, TrustFloor: 90})
	// The floor is above every (zero) entry timestamp, so the entries are
	// censored away; rebuild them to isolate the marker cost.
	r.Entries = make([]db.UpdateEntry, 5)
	if got := r.SizeBits(p); got != plain+MarkerBits(p) {
		t.Fatalf("marked size %d, want %d + %d", got, plain, MarkerBits(p))
	}
}

func TestApplyRecoveryCensorsHistory(t *testing.T) {
	// Entries most-recent-first, matching db.UpdatedSince order; the floor
	// cuts at the first entry the restarted server no longer remembers.
	r := &TSReport{
		T:           200,
		WindowStart: 0,
		Entries: []db.UpdateEntry{
			{ID: 1, TS: 180}, {ID: 2, TS: 150}, {ID: 3, TS: 120}, {ID: 4, TS: 90},
		},
		Dummy: &DummyRecord{Tlb: 50},
	}
	ApplyRecovery(r, RecoveryMarker{Epoch: 2, TrustFloor: 130})
	if len(r.Entries) != 2 || r.Entries[1].ID != 2 {
		t.Fatalf("entries after censor: %+v", r.Entries)
	}
	if r.WindowStart != 130 {
		t.Fatalf("window start %v, want the trust floor", r.WindowStart)
	}
	if r.Dummy != nil {
		t.Fatal("dummy reaching below the floor survived")
	}
	// A dummy at or above the floor is honest and stays.
	r2 := &TSReport{T: 200, Dummy: &DummyRecord{Tlb: 140}}
	ApplyRecovery(r2, RecoveryMarker{Epoch: 2, TrustFloor: 130})
	if r2.Dummy == nil {
		t.Fatal("trustworthy dummy stripped")
	}
}

func TestCorruptDecodeAlwaysErrors(t *testing.T) {
	p := params()
	d := db.New(256, false)
	d.Update(3, 10)
	reports := []Report{
		&TSReport{T: 100, Entries: []db.UpdateEntry{{ID: 7, TS: 50}}},
		&TSReport{T: 100},
		&ATReport{T: 100, IDs: []int32{1}},
		&BSReport{T: 100, S: new(bitseq.Builder).Build(256, d)},
		&SIGReport{T: 100, SigBits: 16, Sigs: []uint64{9}},
	}
	w := bitio.NewWriter()
	for _, r := range reports {
		rp := p
		if r.Kind() == KindBS {
			rp = DefaultParams(256)
		}
		if err := CorruptDecode(r, rp, w); err == nil {
			t.Fatalf("%v: corrupted report decoded cleanly", r.Kind())
		}
		// With a marker attached the frame shifts; still never silent.
		ApplyRecovery(r, RecoveryMarker{Epoch: 1, TrustFloor: 40})
		if err := CorruptDecode(r, rp, w); err == nil {
			t.Fatalf("%v+marker: corrupted report decoded cleanly", r.Kind())
		}
	}
}
