package core

import (
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// atScheme is the amnesic-terminals algorithm (Barbara–Imielinski): the
// report carries only the ids updated during the immediately preceding
// broadcast interval, with no timestamps. A client that heard the
// previous report invalidates exactly the listed items; a client that
// missed even one report can conclude nothing and discards its cache.
type atScheme struct{}

// AT is the amnesic-terminals scheme.
func AT() Scheme { return atScheme{} }

func (atScheme) Name() string { return "at" }

func (atScheme) NewServer(p Params) ServerSide { return &atServer{p: p} }
func (atScheme) NewClient(p Params) ClientSide { return &atClient{p: p} }

type atServer struct {
	p   Params
	ids []int32
}

// BuildReport implements ServerSide: ids updated in (now-L, now].
func (sv *atServer) BuildReport(d *db.Database, now float64) report.Report {
	sv.ids = sv.ids[:0]
	d.MostRecent(d.N(), func(id int32, ts float64) bool {
		if ts <= now-sv.p.L {
			return false
		}
		sv.ids = append(sv.ids, id)
		return true
	})
	return &report.ATReport{T: now, IDs: sv.ids}
}

// HandleControl implements ServerSide; AT clients never send validation
// traffic.
func (sv *atServer) HandleControl(*db.Database, *ControlMsg, float64) *report.ValidityReport {
	panic("core: at server received a control message")
}

type atClient struct {
	p Params
}

// HandleReport implements ClientSide.
func (c *atClient) HandleReport(st *ClientState, r report.Report, now float64) Outcome {
	ar, ok := r.(*report.ATReport)
	if !ok {
		panic("core: at client received " + r.Kind().String())
	}
	// A recovery marker the client predates forces the same drop the
	// contiguity test would (no broadcasts happen while the server is
	// down, so the test usually fires anyway; the gate covers restarts
	// quicker than one interval).
	degraded := epochGate(st, ar)
	if seqGate(st) {
		// A sequence gap is a missed report by construction, which the
		// contiguity test below would also catch; gating here keeps the
		// gap→degrade equivalence uniform across schemes.
		degraded = true
	}
	if degraded {
		return degradeDrop(st, ar.T)
	}
	// Contiguity test: the previous report was at T-L. Allow a relative
	// epsilon for accumulated floating-point drift in the broadcast
	// schedule.
	eps := c.p.L * 1e-9
	if ar.T-st.Tlb > c.p.L+eps {
		dropAll(st)
		validate(st, ar.T)
		return Outcome{Ready: true}
	}
	for _, id := range ar.IDs {
		st.Cache.Invalidate(id)
	}
	st.Cache.TouchAll(ar.T)
	validate(st, ar.T)
	return Outcome{Ready: true}
}

// HandleValidity implements ClientSide.
func (c *atClient) HandleValidity(*ClientState, *report.ValidityReport, float64) Outcome {
	panic("core: at client received a validity report")
}
