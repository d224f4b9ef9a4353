package span

import (
	"testing"

	"mobicache/internal/trace"
)

// feed writes a sequence of events into the assembler, failing on error
// (Write never errors, but the Sink contract allows it).
func feed(t *testing.T, a *Assembler, evs []trace.Event) {
	t.Helper()
	for _, e := range evs {
		if err := a.Write(e); err != nil {
			t.Fatalf("Write(%+v): %v", e, err)
		}
	}
}

// ev is shorthand for a trace event.
func ev(kind trace.Kind, cl int32, t float64, a, b int64) trace.Event {
	return trace.Event{T: t, Kind: kind, Client: cl, A: a, B: b}
}

// missQuery is the full fetch path of one query for a client, with
// phase widths ir=10, check=0, queue=2, tx=3, srv=3, down=2.
func missQuery(cl int32, t0 float64) []trace.Event {
	return []trace.Event{
		ev(trace.QueryStart, cl, t0, 0, 1),
		ev(trace.QueryValidated, cl, t0+10, 0, 1),
		ev(trace.FetchSent, cl, t0+10, 1, 0),
		ev(trace.UplinkTxStart, cl, t0+12, 0, 0),
		ev(trace.FetchArrived, cl, t0+15, 1, 0),
		ev(trace.ItemTxStart, cl, t0+18, 7, 0),
		ev(trace.QueryDone, cl, t0+20, 0, 0),
	}
}

func wantPhases(t *testing.T, s *Span, want [NumPhases]float64) {
	t.Helper()
	for p := Phase(0); p < NumPhases; p++ {
		if s.Phases[p] != want[p] {
			t.Fatalf("phase %s = %v, want %v (span %+v)", p, s.Phases[p], want[p], *s)
		}
	}
}

func TestMissQueryDecomposition(t *testing.T) {
	a := New(Options{Clients: 1, Horizon: 100, Keep: true})
	feed(t, a, missQuery(0, 0))
	s := a.Finalize(100)
	if s.Answered != 1 || s.Terminal() != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	if len(s.Spans) != 1 {
		t.Fatalf("kept %d spans", len(s.Spans))
	}
	sp := &s.Spans[0]
	if sp.Outcome != OutcomeAnswered || sp.Start != 0 || sp.End != 20 ||
		sp.Items != 1 || sp.Hits != 0 || sp.Misses != 1 {
		t.Fatalf("span %+v", *sp)
	}
	wantPhases(t, sp, [NumPhases]float64{
		PhaseIRWait: 10, PhaseUpQueue: 2, PhaseUpTx: 3,
		PhaseSrvWait: 3, PhaseDownWait: 2, PhaseCacheCheck: 0,
	})
	if s.MaxResidual != 0 {
		t.Fatalf("residual %v on exact stream", s.MaxResidual)
	}
}

func TestPureHitQuery(t *testing.T) {
	a := New(Options{Clients: 1, Horizon: 100, Keep: true})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 0, 0, 2),
		ev(trace.QueryValidated, 0, 10, 2, 0),
		ev(trace.QueryDone, 0, 10, 0, 0),
	})
	s := a.Finalize(100)
	sp := &s.Spans[0]
	if sp.Hits != 2 || sp.Misses != 0 || sp.End-sp.Start != 10 {
		t.Fatalf("span %+v", *sp)
	}
	wantPhases(t, sp, [NumPhases]float64{PhaseIRWait: 10})
}

func TestValidationExchangePath(t *testing.T) {
	// A ts-check style query: the check request goes uplink, the validity
	// reply comes back, then the report-validated answer completes.
	a := New(Options{Clients: 1, Horizon: 200, Keep: true})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 0, 0, 1),
		ev(trace.ControlSent, 0, 5, 0, 256),
		ev(trace.UplinkTxStart, 0, 6, 1, 0), // A=1: check exchange
		ev(trace.ControlArrived, 0, 8, 0, 0),
		ev(trace.ValidityTxStart, 0, 9, 0, 0),
		ev(trace.ValidityDelivered, 0, 11, 0, 0),
		ev(trace.QueryValidated, 0, 11, 1, 0),
		ev(trace.QueryDone, 0, 11, 0, 0),
	})
	s := a.Finalize(200)
	if s.Answered != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	wantPhases(t, &s.Spans[0], [NumPhases]float64{
		PhaseIRWait: 5, PhaseUpQueue: 1, PhaseUpTx: 2,
		PhaseSrvWait: 1, PhaseDownWait: 2,
	})
}

func TestFetchRetryAcrossServerCrash(t *testing.T) {
	// The fetch reaches a crashed server (FetchArrived B=1, dropped); the
	// client's retry re-queues it (FetchSent attempt 1) after the timeout.
	// The dead time folds into srv_wait — the stall happened after the
	// request arrived — and the second attempt's phases stack on top.
	a := New(Options{Clients: 1, Horizon: 2000, Keep: true})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 0, 0, 1),
		ev(trace.QueryValidated, 0, 4, 0, 1),
		ev(trace.FetchSent, 0, 4, 1, 0),
		ev(trace.UplinkTxStart, 0, 6, 0, 0),
		ev(trace.FetchArrived, 0, 10, 1, 1), // server crashed: dropped
		ev(trace.RetryAttempt, 0, 244, 0, 1),
		ev(trace.FetchSent, 0, 244, 1, 1), // attempt 1 re-queues
		ev(trace.UplinkTxStart, 0, 245, 0, 0),
		ev(trace.FetchArrived, 0, 249, 1, 0),
		ev(trace.ItemTxStart, 0, 250, 7, 0),
		ev(trace.QueryDone, 0, 252, 0, 0),
	})
	s := a.Finalize(2000)
	if s.Answered != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	wantPhases(t, &s.Spans[0], [NumPhases]float64{
		PhaseIRWait:   4,
		PhaseUpQueue:  2 + 1,
		PhaseUpTx:     4 + 4,
		PhaseSrvWait:  234 + 1, // 10→244 dead at the crashed server, 249→250 live
		PhaseDownWait: 2,
	})
	if s.MaxResidual != 0 {
		t.Fatalf("residual %v", s.MaxResidual)
	}
}

func TestAbandonedCheckFallsBackToIRWait(t *testing.T) {
	// A check exchange times out (RetryAttempt A=1): the client falls back
	// to waiting for the next report, and the stale validity reply that
	// straggles in afterwards must not restart any phase.
	a := New(Options{Clients: 1, Horizon: 2000, Keep: true})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 0, 0, 1),
		ev(trace.ControlSent, 0, 2, 0, 256),
		ev(trace.UplinkTxStart, 0, 3, 1, 0),
		ev(trace.RetryAttempt, 0, 243, 1, 1),      // exchange abandoned
		ev(trace.ValidityDelivered, 0, 300, 1, 0), // stale, dropped
		ev(trace.QueryValidated, 0, 400, 1, 0),    // next report validates
		ev(trace.QueryDone, 0, 400, 0, 0),
	})
	s := a.Finalize(2000)
	if s.Answered != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	wantPhases(t, &s.Spans[0], [NumPhases]float64{
		PhaseIRWait:  2 + 157, // initial wait + post-abandon backoff 243→400
		PhaseUpQueue: 1,
		PhaseUpTx:    240, // 3→243: dead on the wire until the timeout
	})
}

func TestCoalescedFetchSharesServicePhase(t *testing.T) {
	// Client 0 is the requester of record (gets the ItemTxStart); client 1
	// coalesces onto the same pending transmission and must accrue
	// srv_wait until its QueryDone, with no down_wait of its own.
	a := New(Options{Clients: 2, Horizon: 200, Keep: true})
	feed(t, a, missQuery(0, 0))
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 1, 1, 0, 1),
		ev(trace.QueryValidated, 1, 11, 0, 1),
		ev(trace.FetchSent, 1, 11, 1, 0),
		ev(trace.UplinkTxStart, 1, 13, 0, 0),
		ev(trace.FetchArrived, 1, 16, 1, 0),
		// No ItemTxStart for client 1: its fetch coalesced server-side.
		ev(trace.QueryDone, 1, 20, 0, 0),
	})
	s := a.Finalize(200)
	if s.Answered != 2 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	var coalesced *Span
	for i := range s.Spans {
		if s.Spans[i].Client == 1 {
			coalesced = &s.Spans[i]
		}
	}
	wantPhases(t, coalesced, [NumPhases]float64{
		PhaseIRWait: 10, PhaseUpQueue: 2, PhaseUpTx: 3,
		PhaseSrvWait: 4, // 16→20: service shared with the in-flight transmission
	})
}

func TestDuplicateAndReorderedEventsIgnored(t *testing.T) {
	// Duplicated validity replies and out-of-order transmission stamps
	// (the delivery adversary's work) must not perturb the state machine:
	// each guard admits a transition only from its expected phase.
	a := New(Options{Clients: 1, Horizon: 200, Keep: true})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 0, 0, 1),
		ev(trace.ItemTxStart, 0, 1, 7, 0), // reordered: nothing fetched yet
		ev(trace.ControlSent, 0, 5, 0, 256),
		ev(trace.UplinkTxStart, 0, 6, 1, 0),
		ev(trace.UplinkTxStart, 0, 6.5, 1, 0), // duplicate stamp: ignored
		ev(trace.ControlArrived, 0, 8, 0, 0),
		ev(trace.ControlArrived, 0, 8.5, 0, 0), // duplicate arrival: ignored
		ev(trace.ValidityTxStart, 0, 9, 0, 0),
		ev(trace.ValidityDelivered, 0, 11, 0, 0),
		ev(trace.ValidityDelivered, 0, 12, 1, 0), // duplicate reply: ignored
		ev(trace.QueryValidated, 0, 15, 1, 0),
		ev(trace.QueryDone, 0, 15, 0, 0),
	})
	s := a.Finalize(200)
	if s.Answered != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
	wantPhases(t, &s.Spans[0], [NumPhases]float64{
		PhaseIRWait: 5 + 4, PhaseUpQueue: 1, PhaseUpTx: 2,
		PhaseSrvWait: 1, PhaseDownWait: 2,
	})
}

func TestAnomaliesCounted(t *testing.T) {
	a := New(Options{Clients: 1, Horizon: 100})
	// Terminal with nothing open.
	feed(t, a, []trace.Event{ev(trace.QueryDone, 0, 5, 0, 0)})
	// New query over an unterminated one.
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 0, 10, 0, 1),
		ev(trace.QueryStart, 0, 20, 0, 1),
		ev(trace.QueryDone, 0, 30, 0, 0),
	})
	s := a.Finalize(100)
	if s.Anomalies != 2 {
		t.Fatalf("anomalies = %d, want 2", s.Anomalies)
	}
	if s.Answered != 1 || s.Open != 1 {
		t.Fatalf("summary %+v", s)
	}
	if err := s.Identity(2, 1, 0, 0, 1); err == nil {
		t.Fatal("Identity accepted an anomalous stream")
	}
}

func TestFinalizeClosesOpenSpans(t *testing.T) {
	a := New(Options{Clients: 2, Horizon: 100, Keep: true})
	feed(t, a, []trace.Event{ev(trace.QueryStart, 1, 40, 0, 1)})
	s := a.Finalize(100)
	if s.Open != 1 || s.Terminal() != 1 {
		t.Fatalf("summary %+v", s)
	}
	sp := &s.Spans[0]
	if sp.Outcome != OutcomeOpen || sp.End != 100 || sp.Phases[PhaseIRWait] != 60 {
		t.Fatalf("span %+v", *sp)
	}
	// Idempotent; later writes ignored.
	if a.Finalize(100) != s {
		t.Fatal("Finalize not idempotent")
	}
	feed(t, a, missQuery(1, 100))
	if s.Terminal() != 1 {
		t.Fatal("post-Finalize writes mutated the summary")
	}
}

func TestIdentityMatches(t *testing.T) {
	a := New(Options{Clients: 3, Horizon: 1000, Keep: true})
	feed(t, a, missQuery(0, 0))
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 1, 0, 0, 1),
		ev(trace.QueryValidated, 1, 5, 0, 1),
		ev(trace.FetchSent, 1, 5, 1, 0),
		ev(trace.QueryShed, 1, 5, 0, 1),
	})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, 2, 0, 0, 1),
		ev(trace.QueryDeadline, 2, 80, 0, 0),
	})
	feed(t, a, []trace.Event{ev(trace.QueryStart, 0, 900, 0, 1)})
	s := a.Finalize(1000)
	if err := s.Identity(4, 1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Identity(5, 1, 1, 1, 1); err == nil {
		t.Fatal("Identity accepted a wrong issued count")
	}
	if err := s.Identity(4, 2, 0, 1, 1); err == nil {
		t.Fatal("Identity accepted wrong outcome counts")
	}
}

func TestClientGrowthPastHint(t *testing.T) {
	a := New(Options{Clients: 1, Horizon: 100})
	feed(t, a, missQuery(17, 0))
	s := a.Finalize(100)
	if s.Answered != 1 {
		t.Fatalf("growth past hint lost the span: %+v", s)
	}
}

func TestServerEventsIgnored(t *testing.T) {
	a := New(Options{Clients: 1, Horizon: 100})
	feed(t, a, []trace.Event{
		ev(trace.QueryStart, -1, 0, 0, 1), // server-attributed: ignored
		ev(trace.QueryStart, 0, 0, 0, 1),
		ev(trace.QueryDone, 0, 10, 0, 0),
	})
	s := a.Finalize(100)
	if s.Answered != 1 || s.Anomalies != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestBadOptionsPanic(t *testing.T) {
	for name, opt := range map[string]Options{
		"zero-horizon":    {Clients: 1},
		"negative-client": {Clients: -1, Horizon: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			New(opt)
		}()
	}
}

// TestWriteZeroAllocs pins the hot fold path: steady-state event
// processing (no Keep retention, population within the hint) must not
// allocate.
func TestWriteZeroAllocs(t *testing.T) {
	a := New(Options{Clients: 4, Horizon: 1e9})
	evs := missQuery(2, 0)
	var tick float64
	allocs := testing.AllocsPerRun(1000, func() {
		for _, e := range evs {
			e.T += tick
			if a.Write(e) != nil {
				t.Fatal("write error")
			}
		}
		tick += 100
	})
	if allocs != 0 {
		t.Fatalf("fold allocates %v allocs/op", allocs)
	}
}

func BenchmarkSpanAssemble(b *testing.B) {
	a := New(Options{Clients: 4, Horizon: 1e12})
	evs := missQuery(1, 0)
	var tick float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := evs[i%len(evs)]
		e.T += tick
		if i%len(evs) == len(evs)-1 {
			tick += 100
		}
		_ = a.Write(e)
	}
}
