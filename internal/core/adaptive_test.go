package core

import (
	"math"
	"testing"

	"mobicache/internal/report"
)

func TestAFWDefaultsToWindowReport(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.d.Update(3, 390)
	rep := r.server.BuildReport(r.d, 400)
	if rep.Kind() != report.KindTS {
		t.Fatalf("kind = %v", rep.Kind())
	}
}

func TestAFWSwitchesToBSAfterFeedback(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	r.d.Update(7, 300)

	// First report: client is beyond the window, sends its Tlb.
	rep1 := r.server.BuildReport(r.d, 400)
	out1 := r.client.HandleReport(r.st, rep1, 400)
	if out1.Send == nil || out1.Send.Feedback == nil {
		t.Fatalf("outcome = %+v", out1)
	}
	if out1.Send.Feedback.Tlb != 0 {
		t.Fatalf("feedback Tlb = %v", out1.Send.Feedback.Tlb)
	}
	if out1.Ready {
		t.Fatal("ready without validation")
	}
	r.st.FeedbackDeliveredAt = 401
	r.server.HandleControl(r.d, out1.Send, 401)

	// Next report must be bit sequences; the client salvages.
	rep2 := r.server.BuildReport(r.d, 420)
	if rep2.Kind() != report.KindBS {
		t.Fatalf("second report kind = %v", rep2.Kind())
	}
	out2 := r.client.HandleReport(r.st, rep2, 420)
	if !out2.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out2)
	}
	if _, ok := r.st.Cache.Peek(5); !ok {
		t.Fatal("salvageable item lost")
	}
	if r.st.Tlb != 420 || r.st.SentTlb {
		t.Fatalf("state after BS: Tlb=%v sent=%v", r.st.Tlb, r.st.SentTlb)
	}

	// The special report is one-shot: the next broadcast reverts to TS.
	rep3 := r.server.BuildReport(r.d, 440)
	if rep3.Kind() != report.KindTS {
		t.Fatalf("third report kind = %v", rep3.Kind())
	}
	srv := r.server.(*adaptiveServer)
	if srv.SentBS != 1 || srv.SentTS != 2 || srv.SentExt != 0 {
		t.Fatalf("decision counters: %+v", srv)
	}
}

func TestAFWFeedbackSentOnlyOnce(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	if out.Send == nil {
		t.Fatal("no feedback")
	}
	// Feedback still in flight when the next TS report arrives: the
	// client neither resends nor drops.
	rep2 := &report.TSReport{T: 420}
	out2 := r.client.HandleReport(r.st, rep2, 420)
	if out2.Send != nil || out2.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out2)
	}
}

func TestAFWDropsWhenServerIgnoresDeliveredFeedback(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	if out.Send == nil {
		t.Fatal("no feedback")
	}
	r.st.FeedbackDeliveredAt = 405
	// A TS report broadcast after delivery means the server declined
	// (e.g. it judged the cache unsalvageable): drop.
	out2 := r.client.HandleReport(r.st, &report.TSReport{T: 420}, 420)
	if r.st.Drops != 1 || r.st.Cache.Len() != 0 {
		t.Fatalf("outcome = %+v", out2)
	}
	if !out2.Ready {
		t.Fatal("drop must still validate (empty cache is valid)")
	}
}

func TestAFWEmptyCacheNoFeedback(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.st.Tlb = 0
	out := r.client.HandleReport(r.st, &report.TSReport{T: 400}, 400)
	if out.Send != nil {
		t.Fatal("empty cache sent feedback")
	}
	if !out.Ready || r.st.Tlb != 400 {
		t.Fatalf("outcome = %+v Tlb=%v", out, r.st.Tlb)
	}
}

func TestAFWServerIgnoresUnsalvageableTlb(t *testing.T) {
	// More than half the database updated after the client's Tlb: BS
	// cannot help, so the server must not waste the downlink on it.
	r := newRig(t, AFW(), 10, 4)
	for i := int32(0); i < 6; i++ {
		r.d.Update(i, 300+float64(i))
	}
	r.server.HandleControl(r.d, &ControlMsg{Feedback: &report.Feedback{Client: 1, Tlb: 10}}, 401)
	rep := r.server.BuildReport(r.d, 420)
	if rep.Kind() != report.KindTS {
		t.Fatalf("kind = %v (server should decline BS)", rep.Kind())
	}
}

func TestAFWServerServesSalvageableTlb(t *testing.T) {
	r := newRig(t, AFW(), 10, 4)
	// Only 3 of 10 items updated: TS(Bn) is the epoch, any Tlb qualifies.
	for i := int32(0); i < 3; i++ {
		r.d.Update(i, 300+float64(i))
	}
	r.server.HandleControl(r.d, &ControlMsg{Feedback: &report.Feedback{Client: 1, Tlb: 10}}, 401)
	if rep := r.server.BuildReport(r.d, 420); rep.Kind() != report.KindBS {
		t.Fatalf("kind = %v", rep.Kind())
	}
}

func TestAAWPrefersEnlargedWindowWhenSmaller(t *testing.T) {
	// Large database, few updates since the client's Tlb: the enlarged
	// window report is far smaller than 2N bits of bit sequences.
	r := newRig(t, AAW(), 1000, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 50
	r.d.Update(7, 300)
	r.d.Update(8, 350)

	rep1 := r.server.BuildReport(r.d, 400)
	out1 := r.client.HandleReport(r.st, rep1, 400)
	if out1.Send == nil {
		t.Fatal("no feedback")
	}
	r.st.FeedbackDeliveredAt = 401
	r.server.HandleControl(r.d, out1.Send, 401)

	rep2 := r.server.BuildReport(r.d, 420)
	if rep2.Kind() != report.KindTSExt {
		t.Fatalf("kind = %v, want extended window", rep2.Kind())
	}
	ext := rep2.(*report.TSReport)
	if ext.Dummy == nil || ext.Dummy.Tlb != 50 {
		t.Fatalf("dummy = %+v", ext.Dummy)
	}
	if len(ext.Entries) != 2 {
		t.Fatalf("entries = %v", ext.Entries)
	}
	out2 := r.client.HandleReport(r.st, rep2, 420)
	if !out2.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out2)
	}
	if _, ok := r.st.Cache.Peek(5); !ok {
		t.Fatal("valid item lost")
	}
	if r.st.Salvages != 1 {
		t.Fatalf("salvages = %d", r.st.Salvages)
	}
	srv := r.server.(*adaptiveServer)
	if srv.SentExt != 1 {
		t.Fatalf("counters = %+v", srv)
	}
}

func TestAAWExtendedReportInvalidatesStale(t *testing.T) {
	r := newRig(t, AAW(), 1000, 10)
	r.st.Cache.Put(7, 0, 0) // updated at 300: must go
	r.st.Cache.Put(5, 0, 0) // untouched: stays
	r.st.Tlb = 50
	r.d.Update(7, 300)
	out1 := r.client.HandleReport(r.st, r.server.BuildReport(r.d, 400), 400)
	r.st.FeedbackDeliveredAt = 401
	r.server.HandleControl(r.d, out1.Send, 401)
	r.client.HandleReport(r.st, r.server.BuildReport(r.d, 420), 420)
	if _, ok := r.st.Cache.Peek(7); ok {
		t.Fatal("stale item survived the enlarged window")
	}
	if _, ok := r.st.Cache.Peek(5); !ok {
		t.Fatal("valid item lost")
	}
}

func TestAAWFallsBackToBSWhenWindowTooLarge(t *testing.T) {
	// Tiny database with many updates since Tlb: 2N bits of BS beat a
	// long entry list.
	r := newRig(t, AAW(), 16, 8)
	r.st.Cache.Put(15, 0, 0)
	r.st.Tlb = 10
	for i := int32(0); i < 8; i++ {
		r.d.Update(i, 250+float64(i)) // 8 of 16 updated, all after Tlb=10
	}
	// TS(Bn) with 8 of 16 updated is the 9th-recent time: none, epoch.
	out1 := r.client.HandleReport(r.st, r.server.BuildReport(r.d, 400), 400)
	if out1.Send == nil {
		t.Fatal("no feedback")
	}
	r.st.FeedbackDeliveredAt = 401
	r.server.HandleControl(r.d, out1.Send, 401)
	rep := r.server.BuildReport(r.d, 420)
	if rep.Kind() != report.KindBS {
		t.Fatalf("kind = %v, want BS (ext window of 9 entries costs more)", rep.Kind())
	}
}

func TestAAWUsesOldestQualifyingTlb(t *testing.T) {
	r := newRig(t, AAW(), 1000, 10)
	r.d.Update(1, 100)
	r.server.HandleControl(r.d, &ControlMsg{Feedback: &report.Feedback{Client: 1, Tlb: 150}}, 401)
	r.server.HandleControl(r.d, &ControlMsg{Feedback: &report.Feedback{Client: 2, Tlb: 90}}, 402)
	rep := r.server.BuildReport(r.d, 420).(*report.TSReport)
	if rep.Dummy == nil || rep.Dummy.Tlb != 90 {
		t.Fatalf("dummy = %+v, want the older Tlb", rep.Dummy)
	}
	// The report covers updates since 90, so item 1 (t=100) is listed.
	if len(rep.Entries) != 1 || rep.Entries[0].ID != 1 {
		t.Fatalf("entries = %v", rep.Entries)
	}
}

func TestAdaptiveClientInWindowIgnoresDummy(t *testing.T) {
	r := newRig(t, AAW(), 1000, 10)
	r.st.Cache.Put(3, 0, 0)
	r.st.Tlb = 390 // within window of a report at 420
	rep := &report.TSReport{T: 420, WindowStart: 50,
		Dummy: &report.DummyRecord{Tlb: 50}}
	out := r.client.HandleReport(r.st, rep, 420)
	if !out.Ready || out.Send != nil {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestAdaptiveFeedbackDeliveredAtInitialized(t *testing.T) {
	r := newRig(t, AFW(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	out := r.client.HandleReport(r.st, &report.TSReport{T: 400}, 400)
	if out.Send == nil {
		t.Fatal("no feedback")
	}
	if !math.IsInf(r.st.FeedbackDeliveredAt, 1) {
		t.Fatalf("FeedbackDeliveredAt = %v, want +Inf while in flight", r.st.FeedbackDeliveredAt)
	}
}

func TestAdaptiveNames(t *testing.T) {
	if AFW().Name() != "afw" || AAW().Name() != "aaw" {
		t.Fatal("names")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw"} {
		s, err := Lookup(name)
		if err != nil || s.Name() != name {
			t.Fatalf("lookup %q: %v", name, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("bogus lookup succeeded")
	}
	if len(Names()) != 7 { // the six paper schemes plus the SIG extension
		t.Fatalf("names = %v", Names())
	}
}
