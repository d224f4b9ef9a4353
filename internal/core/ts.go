package core

import (
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// tsScheme is the plain broadcasting-timestamps algorithm (paper §2.1,
// Figure 1): the report lists updates of the last w intervals; a client
// disconnected past the window discards its whole cache. checking enables
// Wu et al.'s simple-checking variant (§2.2): instead of discarding, the
// client uploads its cached ids and Tlb and the server replies with a
// validity bitmap.
type tsScheme struct {
	checking bool
}

// TS is the no-checking broadcasting-timestamps scheme.
func TS() Scheme { return tsScheme{checking: false} }

// TSCheck is TS with Wu et al.'s post-reconnection validity check.
func TSCheck() Scheme { return tsScheme{checking: true} }

func (s tsScheme) Name() string {
	if s.checking {
		return "ts-check"
	}
	return "ts"
}

func (s tsScheme) NewServer(p Params) ServerSide { return &tsServer{p: p} }
func (s tsScheme) NewClient(p Params) ClientSide {
	return &tsClient{p: p, checking: s.checking, idx: tsIndex{n: p.N}}
}

type tsServer struct {
	p Params
}

// BuildReport implements ServerSide: the update history of the last w
// broadcast intervals. Each report owns its entry slice because its
// delivery (after the simulated transmission time) can overlap the next
// build.
func (sv *tsServer) BuildReport(d *db.Database, now float64) report.Report {
	start := now - sv.p.WindowSeconds()
	return &report.TSReport{T: now, WindowStart: start, Entries: d.UpdatedSince(start, nil)}
}

// HandleControl implements ServerSide. Only the checking variant's
// clients send anything; the reply bitmap is positional over the request
// ids, valid meaning "not updated since the client's Tlb".
func (sv *tsServer) HandleControl(d *db.Database, msg *ControlMsg, now float64) *report.ValidityReport {
	if msg.Check == nil {
		panic("core: ts server received non-check control message")
	}
	req := msg.Check
	v := &report.ValidityReport{T: now, Client: req.Client, Seq: req.Seq, Valid: make([]bool, len(req.IDs))}
	for i, id := range req.IDs {
		v.Valid[i] = d.CheckValid(id, req.Tlb)
	}
	return v
}

type tsClient struct {
	p        Params
	checking bool
	idx      tsIndex
}

// HandleReport implements ClientSide (Figure 1, plus the §2.2 checking
// path).
func (c *tsClient) HandleReport(st *ClientState, r report.Report, now float64) Outcome {
	tr, ok := r.(*report.TSReport)
	if !ok {
		panic("core: ts client received " + r.Kind().String())
	}
	if st.AwaitingValidity {
		// The cache's validity question is already with the server; the
		// answer (against the recorded Tlb) remains conservative no
		// matter how many reports pass meanwhile.
		return Outcome{}
	}
	// A recovery marker the client's Tlb predates makes the window
	// untrustworthy even when Tlb falls inside it: the restarted server
	// no longer remembers updates from the client's gap.
	degraded := epochGate(st, tr)
	if seqGate(st) {
		// Missing broadcasts are exactly a disconnection longer than the
		// client can verify: fall through to the conservative path (drop,
		// or a check request for the checking variant).
		degraded = true
	}
	if !degraded && st.Tlb >= tr.T-c.p.WindowSeconds() {
		c.idx.applyTSEntries(st, tr)
		validate(st, tr.T)
		return Outcome{Ready: true}
	}
	if !c.checking {
		dropAll(st)
		validate(st, tr.T)
		return Outcome{Ready: true, EpochDegrade: degraded}
	}
	if st.Cache.Len() == 0 {
		// Nothing to salvage; an empty cache is trivially valid.
		validate(st, tr.T)
		return Outcome{Ready: true, EpochDegrade: degraded}
	}
	st.PendingCheckIDs = st.Cache.IDs(st.PendingCheckIDs[:0])
	st.AwaitingValidity = true
	st.CheckSeq++
	ids := make([]int32, len(st.PendingCheckIDs))
	copy(ids, st.PendingCheckIDs)
	return Outcome{EpochDegrade: degraded, Send: &ControlMsg{Check: &report.CheckRequest{
		Client: st.ID,
		Seq:    st.CheckSeq,
		Tlb:    st.Tlb,
		IDs:    ids,
	}}}
}

// HandleValidity implements ClientSide for the checking variant.
func (c *tsClient) HandleValidity(st *ClientState, v *report.ValidityReport, now float64) Outcome {
	if !c.checking {
		panic("core: plain ts client received a validity report")
	}
	if !st.AwaitingValidity || v.Seq != st.CheckSeq {
		// A reply to an exchange the client has since abandoned.
		return Outcome{}
	}
	if len(v.Valid) != len(st.PendingCheckIDs) {
		panic("core: validity bitmap length mismatch")
	}
	invalidated := 0
	for i, id := range st.PendingCheckIDs {
		if !v.Valid[i] {
			// The item may have been invalidated or evicted since the
			// request was sent; Invalidate tolerates absence.
			if st.Cache.Invalidate(id) {
				invalidated++
			}
		}
	}
	st.Cache.TouchAll(v.T)
	st.AwaitingValidity = false
	if invalidated < len(st.PendingCheckIDs) {
		st.Salvages++
	}
	validate(st, v.T)
	return Outcome{Ready: true}
}
