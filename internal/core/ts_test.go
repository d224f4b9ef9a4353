package core

import (
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// testRig wires one scheme's server and client halves to a database,
// simulating instantaneous message delivery (the engine adds channel
// delays; protocol correctness must not depend on them).
type testRig struct {
	p      Params
	d      *db.Database
	server ServerSide
	client ClientSide
	st     *ClientState
}

func newRig(t *testing.T, s Scheme, n, cacheCap int) *testRig {
	t.Helper()
	p := DefaultParams(n)
	return &testRig{
		p:      p,
		d:      db.New(n, true),
		server: s.NewServer(p),
		client: s.NewClient(p),
		st:     newClientState(1, cacheCap, n),
	}
}

// newClientState creates protocol state with an empty cache of the given
// capacity over an n-item space, validated through time 0.
func newClientState(id int32, capacity, n int) *ClientState {
	return &ClientState{ID: id, Cache: cache.New(capacity, n)}
}

// broadcast builds a report at time now and delivers it to the client,
// resolving any resulting control round-trip instantly.
func (r *testRig) broadcast(now float64) Outcome {
	rep := r.server.BuildReport(r.d, now)
	out := r.client.HandleReport(r.st, rep, now)
	if out.Send != nil {
		r.st.FeedbackDeliveredAt = now
		if v := r.server.HandleControl(r.d, out.Send, now); v != nil {
			return r.client.HandleValidity(r.st, v, now)
		}
	}
	return out
}

func TestTSInWindowInvalidation(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Cache.Put(6, 0, 0)
	r.d.Update(5, 10)
	out := r.broadcast(20)
	if !out.Ready || r.st.Drops != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("updated item survived")
	}
	if e, ok := r.st.Cache.Peek(6); !ok || e.TS != 20 {
		t.Fatalf("survivor not touched: %+v ok=%v", e, ok)
	}
	if r.st.Tlb != 20 {
		t.Fatalf("Tlb = %v", r.st.Tlb)
	}
}

func TestTSKeepsFresherCopy(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	r.d.Update(5, 10)
	// The client fetched item 5 after the update: cached TS = 10.
	r.st.Cache.Put(5, 10, 1)
	out := r.broadcast(20)
	if !out.Ready {
		t.Fatal("not ready")
	}
	if _, ok := r.st.Cache.Peek(5); !ok {
		t.Fatal("fresh copy was invalidated")
	}
}

func TestTSDropsBeyondWindow(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	// Window is w*L = 200 s; a report at 400 leaves Tlb=0 outside it.
	out := r.broadcast(400)
	if r.st.Drops != 1 || r.st.Cache.Len() != 0 {
		t.Fatalf("outcome = %+v drops=%d len=%d", out, r.st.Drops, r.st.Cache.Len())
	}
}

func TestTSWindowBoundaryInclusive(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 200 // exactly T - wL for T=400
	r.broadcast(400)
	if r.st.Drops != 0 {
		t.Fatal("boundary Tlb treated as out of window")
	}
}

func TestTSCheckSalvagesAfterLongDisconnection(t *testing.T) {
	r := newRig(t, TSCheck(), 100, 10)
	r.st.Cache.Put(5, 0, 0) // will be updated: must go
	r.st.Cache.Put(6, 0, 0) // untouched: must stay
	r.st.Tlb = 0
	r.d.Update(5, 100)
	out := r.broadcast(400) // far beyond the window
	if !out.Ready {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("stale item salvaged")
	}
	if _, ok := r.st.Cache.Peek(6); !ok {
		t.Fatal("valid item lost")
	}
	if r.st.Salvages != 1 {
		t.Fatalf("salvages = %d", r.st.Salvages)
	}
	if r.st.Tlb != 400 {
		t.Fatalf("Tlb = %v", r.st.Tlb)
	}
}

func TestTSCheckEmptyCacheSkipsUplink(t *testing.T) {
	r := newRig(t, TSCheck(), 100, 10)
	r.st.Tlb = 0
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	if out.Send != nil {
		t.Fatal("empty cache still sent a check request")
	}
	if !out.Ready {
		t.Fatal("not ready")
	}
}

func TestTSCheckRequestContents(t *testing.T) {
	r := newRig(t, TSCheck(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Cache.Put(9, 0, 0)
	r.st.Tlb = 7
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	if out.Send == nil || out.Send.Check == nil {
		t.Fatalf("outcome = %+v", out)
	}
	chk := out.Send.Check
	if chk.Tlb != 7 || chk.Client != 1 || len(chk.IDs) != 2 {
		t.Fatalf("check = %+v", chk)
	}
	if out.Ready {
		t.Fatal("ready before validity reply")
	}
	if !r.st.AwaitingValidity {
		t.Fatal("awaiting flag unset")
	}
}

func TestTSCheckIgnoresReportsWhileAwaiting(t *testing.T) {
	r := newRig(t, TSCheck(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	if out.Send == nil {
		t.Fatal("no check sent")
	}
	// The next broadcast arrives before the validity reply.
	rep2 := r.server.BuildReport(r.d, 420)
	out2 := r.client.HandleReport(r.st, rep2, 420)
	if out2.Ready || out2.Send != nil {
		t.Fatalf("mid-check report outcome = %+v", out2)
	}
	// Now the validity reply lands.
	v := r.server.HandleControl(r.d, out.Send, 421)
	out3 := r.client.HandleValidity(r.st, v, 421.5)
	if !out3.Ready || r.st.Tlb != 421 {
		t.Fatalf("after validity: %+v Tlb=%v", out3, r.st.Tlb)
	}
}

func TestTSCheckValidityAgainstUpdatesDuringFlight(t *testing.T) {
	r := newRig(t, TSCheck(), 100, 10)
	r.st.Cache.Put(5, 0, 0)
	r.st.Tlb = 0
	rep := r.server.BuildReport(r.d, 400)
	out := r.client.HandleReport(r.st, rep, 400)
	// Item 5 is updated while the check request is in flight.
	r.d.Update(5, 401)
	v := r.server.HandleControl(r.d, out.Send, 402)
	r.client.HandleValidity(r.st, v, 402.5)
	if _, ok := r.st.Cache.Peek(5); ok {
		t.Fatal("item updated during flight survived the check")
	}
}

func TestTSServerReportWindow(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	r.d.Update(2, 90)  // outside the window of a report at 300 (covers >100)
	r.d.Update(1, 150) // inside
	rep := r.server.BuildReport(r.d, 300).(*report.TSReport)
	if len(rep.Entries) != 1 || rep.Entries[0].ID != 1 {
		t.Fatalf("entries = %v", rep.Entries)
	}
	if rep.WindowStart != 100 {
		t.Fatalf("window start = %v", rep.WindowStart)
	}
	if rep.Kind() != report.KindTS {
		t.Fatal("kind")
	}
}

func TestPlainTSPanicsOnValidity(t *testing.T) {
	r := newRig(t, TS(), 100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.client.HandleValidity(r.st, &report.ValidityReport{}, 0)
}

func TestTSSchemeNames(t *testing.T) {
	if TS().Name() != "ts" || TSCheck().Name() != "ts-check" {
		t.Fatal("names")
	}
}
