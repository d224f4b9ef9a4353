package core

import (
	"testing"

	"mobicache/internal/report"
	"mobicache/internal/rng"
)

func TestSIGFirstReportDropsUnknownCache(t *testing.T) {
	r := newRig(t, SIG(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	out := r.broadcast(20)
	if !out.Ready || r.st.Drops != 1 {
		t.Fatalf("outcome = %+v (no baseline: cache cannot be vouched for)", out)
	}
	if r.st.Cache.Len() != 0 {
		t.Fatal("cache kept without a baseline")
	}
}

func TestSIGDetectsUpdate(t *testing.T) {
	r := newRig(t, SIG(), 100, 10)
	r.broadcast(20) // baseline
	r.st.Cache.Put(5, 20, 0)
	r.st.Cache.Put(6, 20, 0)
	r.d.Update(5, 30)
	out := r.broadcast(40)
	if !out.Ready {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("updated item survived the signature diff")
	}
	if _, ok := r.st.Cache.Peek(6); !ok {
		t.Fatal("unchanged item falsely invalidated (possible but should not happen with one update)")
	}
}

func TestSIGNoUpdatesKeepsEverything(t *testing.T) {
	r := newRig(t, SIG(), 100, 10)
	r.broadcast(20)
	for i := int32(0); i < 10; i++ {
		r.st.Cache.Put(i, 20, 0)
	}
	out := r.broadcast(40)
	if !out.Ready || r.st.Cache.Len() != 10 {
		t.Fatalf("outcome = %+v len=%d", out, r.st.Cache.Len())
	}
}

// SIG's defining property: it salvages across arbitrarily long
// disconnections with zero uplink traffic.
func TestSIGSalvagesAcrossLongSleep(t *testing.T) {
	r := newRig(t, SIG(), 1000, 10)
	r.broadcast(20)
	r.st.Cache.Put(5, 20, 0)
	r.st.Cache.Put(6, 20, 0)
	r.d.Update(5, 100)
	// The client sleeps for 10000 s and hears nothing in between.
	out := r.broadcast(10000)
	if !out.Ready || out.Send != nil {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("stale item survived the sleep")
	}
	if _, ok := r.st.Cache.Peek(6); !ok {
		t.Fatal("valid item lost across the sleep")
	}
}

// Soundness sweep: with random updates and random diff boundaries, a
// changed item must never survive (signature-collision probability at
// 32-bit widths is negligible at this scale).
func TestSIGSoundnessSweep(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		r := newRig(t, SIG(), 200, 200)
		now := 20.0
		r.broadcast(now)
		// Fill the cache with everything.
		for i := int32(0); i < 200; i++ {
			r.st.Cache.Put(i, now, 0)
		}
		changed := map[int32]bool{}
		ops := src.Intn(30) + 1
		for i := 0; i < ops; i++ {
			now += src.Exp(5)
			id := int32(src.Intn(200))
			r.d.Update(id, now)
			changed[id] = true
		}
		r.broadcast(now + 10)
		for id := range changed {
			if _, ok := r.st.Cache.Peek(id); ok {
				t.Fatalf("trial %d: updated item %d survived", trial, id)
			}
		}
	}
}

// With few updates, false invalidation of unchanged items must be rare
// (the configured ~1% at f<=10).
func TestSIGFalsePositiveRate(t *testing.T) {
	r := newRig(t, SIG(), 1000, 1000)
	r.broadcast(20)
	for i := int32(0); i < 1000; i++ {
		r.st.Cache.Put(i, 20, 0)
	}
	for i := int32(0); i < 5; i++ {
		r.d.Update(900+i, 30+float64(i))
	}
	r.broadcast(60)
	// 5 stale invalidated; survivors should be >= 900 of the 995.
	if r.st.Cache.Len() < 900 {
		t.Fatalf("only %d of 995 valid items survived (false-positive storm)", r.st.Cache.Len())
	}
}

func TestSIGReportSizeConstant(t *testing.T) {
	r := newRig(t, SIG(), 10000, 10)
	p := report.DefaultParams(10000)
	r.d.Update(1, 5)
	rep := r.server.BuildReport(r.d, 20)
	cfg := DefaultSIGConfig()
	want := 64 + cfg.Groups*cfg.SigBits
	if got := rep.SizeBits(p); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	// Size is independent of update volume (unlike TS) and database size
	// (unlike BS).
	for i := int32(0); i < 500; i++ {
		r.d.Update(i, 30+float64(i))
	}
	if got := r.server.BuildReport(r.d, 1000).SizeBits(p); got != want {
		t.Fatalf("size after burst = %d", got)
	}
}

func TestSIGIncrementalFoldMatchesRebuild(t *testing.T) {
	// Two servers over the same history — one seeing it all at once, one
	// folding across many broadcasts — must emit identical signatures.
	scheme := SIG()
	p := DefaultParams(300)
	incr := scheme.NewServer(p)
	bulk := scheme.NewServer(p)
	rigA := newRig(t, scheme, 300, 10)
	src := rng.New(9)
	now := 0.0
	var last report.Report
	for step := 0; step < 20; step++ {
		for i := 0; i < 10; i++ {
			now += src.Exp(2)
			rigA.d.Update(int32(src.Intn(300)), now)
		}
		now += 1
		last = incr.BuildReport(rigA.d, now)
	}
	bulkRep := bulk.BuildReport(rigA.d, now).(*report.SIGReport)
	incrRep := last.(*report.SIGReport)
	for j := range bulkRep.Sigs {
		if bulkRep.Sigs[j] != incrRep.Sigs[j] {
			t.Fatalf("group %d: incremental %x != bulk %x", j, incrRep.Sigs[j], bulkRep.Sigs[j])
		}
	}
}

func TestSIGPanics(t *testing.T) {
	r := newRig(t, SIG(), 100, 10)
	for name, fn := range map[string]func(){
		"wrong report": func() { r.client.HandleReport(r.st, &report.TSReport{T: 1}, 1) },
		"validity":     func() { r.client.HandleValidity(r.st, &report.ValidityReport{}, 1) },
		"control":      func() { r.server.HandleControl(r.d, &ControlMsg{}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSIGRoundTripThroughCodec(t *testing.T) {
	r := newRig(t, SIG(), 100, 10)
	r.d.Update(1, 5)
	rep := r.server.BuildReport(r.d, 20)
	// Codec round trip happens in the report package tests; here just
	// confirm the kind wiring.
	if rep.Kind() != report.KindSIG {
		t.Fatalf("kind = %v", rep.Kind())
	}
}
