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

type bsClient struct {
	scratch bsScratch
}

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
	return applyBS(st, br, &c.scratch)
}

// applyBS runs the client-side BS step; shared with the adaptive schemes.
func applyBS(st *ClientState, br *report.BSReport, x *bsScratch) Outcome {
	action, level := br.S.Level(st.Tlb)
	switch action {
	case bitseq.AllValid:
		st.Cache.TouchAll(br.T)
		validate(st, br.T)
		return Outcome{Ready: true}
	case bitseq.DropAll:
		dropAll(st)
		validate(st, br.T)
		return Outcome{Ready: true}
	default: // InvalidateSet
		had := st.Cache.Len()
		if had > 0 {
			x.invalidate(st.Cache, br.S.Depth, level)
		}
		st.Cache.TouchAll(br.T)
		if st.Cache.Len() > 0 && had > 0 {
			st.Salvages++
		}
		validate(st, br.T)
		return Outcome{Ready: true}
	}
}

// bsScratch is the client half's reusable buffer for the Figure 2
// invalidation step. The report carries its own dense id → depth table
// (bitseq.Structure.Depth), so applying it costs a client O(cache) and
// nothing per broadcast.
type bsScratch struct {
	ids []int32 // scratch for the cache walk
}

// invalidate discards every cached item that depth marks at the given
// level. Removal never reorders the survivors, so the result equals
// invalidating the level's id list in id order.
func (x *bsScratch) invalidate(c *cache.Cache, depth []uint8, level int) {
	if n := c.Len(); cap(x.ids) < n {
		//lint:allow hotalloc grows at most to the largest cache capacity the ClientSide serves, then is reused
		x.ids = make([]int32, 0, n)
	}
	x.ids = c.IDs(x.ids[:0])
	for _, id := range x.ids {
		if int(depth[id]) > level {
			c.Invalidate(id)
		}
	}
}

// HandleValidity implements ClientSide.
func (c *bsClient) HandleValidity(*ClientState, *report.ValidityReport, float64) Outcome {
	panic("core: bs client received a validity report")
}
