package core

import (
	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// bsScheme is the bit-sequences algorithm (Jing et al., paper §2.3): the
// report is the hierarchical bit-sequences structure over the whole
// database, so clients disconnected arbitrarily long can salvage their
// caches — at the price of a report of roughly 2N bits every interval —
// and never send validation traffic uplink.
type bsScheme struct{}

// BS is the bit-sequences scheme.
func BS() Scheme { return bsScheme{} }

func (bsScheme) Name() string { return "bs" }

func (bsScheme) NewServer(p Params) ServerSide { return &bsServer{p: p} }
func (bsScheme) NewClient(p Params) ClientSide { return &bsClient{} }

type bsServer struct {
	p  Params
	bs bitseq.Builder
}

// BuildReport implements ServerSide.
func (sv *bsServer) BuildReport(d *db.Database, now float64) report.Report {
	return &report.BSReport{T: now, S: sv.bs.Build(sv.p.N, d)}
}

// HandleControl implements ServerSide; BS clients never send validation
// traffic.
func (sv *bsServer) HandleControl(*db.Database, *ControlMsg, float64) *report.ValidityReport {
	panic("core: bs server received a control message")
}

type bsClient struct{}

// HandleReport implements ClientSide (paper Figure 2).
func (c *bsClient) HandleReport(st *ClientState, r report.Report, now float64) Outcome {
	br, ok := r.(*report.BSReport)
	if !ok {
		panic("core: bs client received " + r.Kind().String())
	}
	// The rebuilt structure is derived from durable metadata, but a
	// restarted server cannot vouch that it covers the client's gap;
	// degrade conservatively below the trust floor.
	degraded := epochGate(st, br)
	if seqGate(st) {
		// The bit-sequence structure self-describes validity against any
		// Tlb, but a gap means the client's Tlb may rest on reports whose
		// successors it never saw; degrade like the restart case.
		degraded = true
	}
	if degraded {
		return degradeDrop(st, br.T)
	}
	return applyBS(st, br)
}

// applyBS runs the client-side BS step (paper Figure 2); shared with the
// adaptive schemes. The report carries its own dense id → depth table
// (bitseq.Structure.Depth), so applying it costs a client one sweep of
// its cache and nothing per broadcast.
func applyBS(st *ClientState, br *report.BSReport) Outcome {
	action, level := br.S.Level(st.Tlb)
	switch action {
	case bitseq.AllValid:
		st.Cache.TouchAll(br.T)
	case bitseq.DropAll:
		dropAll(st)
	default: // InvalidateSet: discard every cached item marked above level
		depth := br.S.Depth
		st.Cache.InvalidateIf(func(e cache.Entry) bool { return int(depth[e.ID]) > level })
		st.Cache.TouchAll(br.T)
		if st.Cache.Len() > 0 {
			st.Salvages++
		}
	}
	validate(st, br.T)
	return Outcome{Ready: true}
}

// HandleValidity implements ClientSide.
func (c *bsClient) HandleValidity(*ClientState, *report.ValidityReport, float64) Outcome {
	panic("core: bs client received a validity report")
}
