package core

import (
	"testing"

	"mobicache/internal/report"
)

func TestBSSalvagesLongDisconnection(t *testing.T) {
	r := newRig(t, BS(), 100, 10)
	r.st.Cache.Put(5, 0, 0) // updated: must go
	r.st.Cache.Put(6, 0, 0) // untouched: must stay
	r.st.Tlb = 0
	r.d.Update(5, 5000)
	out := r.broadcast(10000) // disconnection far beyond any window
	if !out.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("stale item survived")
	}
	if _, ok := r.st.Cache.Peek(6); !ok {
		t.Fatal("valid item lost")
	}
	if r.st.Tlb != 10000 {
		t.Fatalf("Tlb = %v", r.st.Tlb)
	}
}

func TestBSDropsWhenHalfDatabaseChanged(t *testing.T) {
	r := newRig(t, BS(), 10, 5)
	r.st.Cache.Put(9, 0, 0)
	r.st.Tlb = 0
	// 6 of 10 items updated after Tlb: beyond what B_n can bound.
	for i := int32(0); i < 6; i++ {
		r.d.Update(i, 100+float64(i))
	}
	out := r.broadcast(200)
	if r.st.Drops != 1 || r.st.Cache.Len() != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestBSAllValidWhenNoUpdates(t *testing.T) {
	r := newRig(t, BS(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	out := r.broadcast(100)
	if !out.Ready || r.st.Cache.Len() != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestBSNeverSendsUplink(t *testing.T) {
	r := newRig(t, BS(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	for i := int32(0); i < 40; i++ {
		r.d.Update(i%100, float64(100+i))
	}
	for _, now := range []float64{200, 5000, 10000} {
		rep := r.server.BuildReport(r.d, now)
		if out := r.client.HandleReport(r.st, rep, now); out.Send != nil {
			t.Fatalf("BS client sent uplink at %v", now)
		}
	}
}

func TestATInvalidatesLastInterval(t *testing.T) {
	r := newRig(t, AT(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Cache.Put(6, 0, 0)
	r.st.Tlb = 380 // heard the previous report (L = 20)
	r.d.Update(5, 390)
	out := r.broadcast(400)
	if !out.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("listed item survived")
	}
	if _, ok := r.st.Cache.Peek(6); !ok {
		t.Fatal("unlisted item lost")
	}
}

func TestATDropsAfterMissedReport(t *testing.T) {
	r := newRig(t, AT(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 360 // missed the report at 380
	out := r.broadcast(400)
	if r.st.Drops != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestATReportOnlyLastInterval(t *testing.T) {
	r := newRig(t, AT(), 100, 10)
	r.d.Update(1, 370) // before the last interval
	r.d.Update(2, 390) // inside
	rep := r.server.BuildReport(r.d, 400).(*report.ATReport)
	if len(rep.IDs) != 1 || rep.IDs[0] != 2 {
		t.Fatalf("ids = %v", rep.IDs)
	}
}

func TestATAmnesicOverInvalidation(t *testing.T) {
	// AT has no timestamps: even a copy fetched after the update is
	// discarded when listed.
	r := newRig(t, AT(), 100, 10)
	r.d.Update(5, 385)
	r.st.Cache.Put(5, 390, 1) // fresher than the update
	r.st.Tlb = 380
	r.broadcast(400)
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("AT kept a listed item")
	}
}

func TestBSATPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bs wrong report": func() {
			r := newRig(t, BS(), 100, 10)
			r.client.HandleReport(r.st, &report.TSReport{T: 1}, 1)
		},
		"at wrong report": func() {
			r := newRig(t, AT(), 100, 10)
			r.client.HandleReport(r.st, &report.TSReport{T: 1}, 1)
		},
		"bs validity": func() {
			r := newRig(t, BS(), 100, 10)
			r.client.HandleValidity(r.st, &report.ValidityReport{}, 1)
		},
		"at control": func() {
			r := newRig(t, AT(), 100, 10)
			r.server.HandleControl(r.d, &ControlMsg{}, 1)
		},
		"bs control": func() {
			r := newRig(t, BS(), 100, 10)
			r.server.HandleControl(r.d, &ControlMsg{}, 1)
		},
		"empty control size": func() {
			(&ControlMsg{}).SizeBits(report.DefaultParams(10))
		},
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

// Cross-scheme conformance: after any single broadcast round with a
// client inside the window, every scheme must leave the cache free of
// items updated since the client's Tlb.
func TestAllSchemesSoundInWindow(t *testing.T) {
	for _, s := range []Scheme{TS(), TSCheck(), AT(), BS(), AFW(), AAW()} {
		r := newRig(t, s, 100, 10)
		r.st.Cache.Put(5, 0, 0)
		r.st.Cache.Put(6, 0, 0)
		r.st.Tlb = 385
		r.d.Update(5, 390)
		out := r.broadcast(400)
		if !out.Ready {
			t.Fatalf("%s: not ready after in-window broadcast", s.Name())
		}
		if _, ok := r.st.Cache.Peek(5); ok {
			t.Fatalf("%s: stale item survived", s.Name())
		}
		if r.st.Tlb != 400 {
			t.Fatalf("%s: Tlb = %v", s.Name(), r.st.Tlb)
		}
	}
}

// Cross-scheme conformance: after a long disconnection every scheme ends
// ready (possibly via an extra round) with no stale items cached.
func TestAllSchemesSoundAfterLongDisconnection(t *testing.T) {
	for _, s := range []Scheme{TS(), TSCheck(), AT(), BS(), AFW(), AAW()} {
		r := newRig(t, s, 1000, 10)
		r.st.Cache.Put(5, 0, 0)
		r.st.Cache.Put(6, 0, 0)
		r.st.Tlb = 0
		r.d.Update(5, 5000)
		out := r.broadcast(10000)
		if !out.Ready {
			// Adaptive schemes need the follow-up special report.
			out = r.broadcast(10020)
		}
		if !out.Ready {
			t.Fatalf("%s: still not ready after follow-up", s.Name())
		}
		if _, ok := r.st.Cache.Peek(5); ok {
			t.Fatalf("%s: stale item survived reconnection", s.Name())
		}
	}
}
