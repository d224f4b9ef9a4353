package core

import (
	"math"

	"mobicache/internal/bitseq"
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// adaptiveScheme implements the paper's §3 contributions. With
// adjustWindow false it is AFW (Adaptive invalidation report with Fixed
// Window, Figure 3): the server broadcasts the ordinary window report and
// switches to a bit-sequences report for one interval whenever a
// reconnecting client's Tlb feedback shows the window is insufficient but
// BS could still salvage the cache. With adjustWindow true it is AAW
// (Adaptive with Adjusting Window, Figure 4): in that situation the
// server may instead enlarge the window back to the oldest requesting
// Tlb — advertised in-band by a dummy record — and picks whichever of the
// enlarged report and the BS report is smaller.
type adaptiveScheme struct {
	adjustWindow bool
}

// AFW is the adaptive scheme with a fixed window.
func AFW() Scheme { return adaptiveScheme{adjustWindow: false} }

// AAW is the adaptive scheme with an adjusting window.
func AAW() Scheme { return adaptiveScheme{adjustWindow: true} }

func (s adaptiveScheme) Name() string {
	if s.adjustWindow {
		return "aaw"
	}
	return "afw"
}

func (s adaptiveScheme) NewServer(p Params) ServerSide {
	return &adaptiveServer{p: p, adjustWindow: s.adjustWindow}
}

func (s adaptiveScheme) NewClient(p Params) ClientSide {
	return &adaptiveClient{p: p, idx: tsIndex{n: p.N}}
}

type adaptiveServer struct {
	p            Params
	adjustWindow bool

	// pending holds the Tlb values received since the last broadcast.
	pending []float64

	// Broadcast decision counters, for the experiment reports.
	SentTS  int64
	SentBS  int64
	SentExt int64
}

// OnServerCrash implements CrashRecoverable: feedback waiting for the
// next broadcast dies with the server.
func (sv *adaptiveServer) OnServerCrash() {
	sv.pending = sv.pending[:0]
}

// HandleControl implements ServerSide: adaptive clients only send Tlb
// feedback.
func (sv *adaptiveServer) HandleControl(d *db.Database, msg *ControlMsg, now float64) *report.ValidityReport {
	if msg.Feedback == nil {
		panic("core: adaptive server received non-feedback control message")
	}
	sv.pending = append(sv.pending, msg.Feedback.Tlb)
	return nil
}

// BuildReport implements ServerSide (the server halves of Figures 3/4).
func (sv *adaptiveServer) BuildReport(d *db.Database, now float64) report.Report {
	windowStart := now - sv.p.WindowSeconds()
	// A feedback warrants a special report if the window cannot serve it
	// (Tlb < T - wL) but bit sequences can (Tlb > TS(Bn)). Older clients
	// are beyond salvage: they will drop regardless, so spending downlink
	// on them is pointless (the Figure 3/4 server condition).
	bn := tsBn(d)
	oldest := math.Inf(1)
	for _, tlb := range sv.pending {
		if tlb < windowStart && tlb > bn && tlb < oldest {
			oldest = tlb
		}
	}
	sv.pending = sv.pending[:0]
	if math.IsInf(oldest, 1) {
		sv.SentTS++
		return &report.TSReport{T: now, WindowStart: windowStart, Entries: d.UpdatedSince(windowStart, nil)}
	}
	if sv.adjustWindow {
		// Compare the enlarged-window report against BS and send the
		// smaller (Figure 4). Sizes are analytic, so the comparison does
		// not require building both payloads: the extended report has
		// |updated since oldest|+1 entries.
		extEntries := d.CountUpdatedSince(oldest) + 1 // + dummy record
		per := sv.p.Rep.IDBits() + sv.p.Rep.TSBits
		extBits := sv.p.Rep.TSBits + extEntries*per
		bsBits := sv.p.Rep.TSBits + bsSizeBits(sv.p)
		if extBits <= bsBits {
			sv.SentExt++
			return &report.TSReport{
				T:           now,
				WindowStart: oldest,
				Entries:     d.UpdatedSince(oldest, nil),
				Dummy:       &report.DummyRecord{Tlb: oldest},
			}
		}
	}
	sv.SentBS++
	return &report.BSReport{T: now, S: bitseq.Build(sv.p.N, d)}
}

// bsSizeBits is the analytic bit-sequences structure size for an N-item
// database: sum of level lengths plus one timestamp per level and the
// dummy B0 timestamp.
func bsSizeBits(p Params) int {
	total := p.Rep.TSBits
	for size := p.N; size >= 2; size /= 2 {
		total += size + p.Rep.TSBits
	}
	return total
}

type adaptiveClient struct {
	p       Params
	scratch []int32
	idx     tsIndex
}

// HandleReport implements ClientSide (the client halves of Figures 3/4).
func (c *adaptiveClient) HandleReport(st *ClientState, r report.Report, now float64) Outcome {
	degraded := epochGate(st, r)
	if seqGate(st) {
		// Missing broadcasts may have carried window entries (or BS
		// announcements) the client will never see: same futility as the
		// restart case, same conservative exit.
		degraded = true
	}
	if degraded {
		// The restarted server lost both its history window and any
		// pending feedback; asking it to salvage the gap is futile.
		st.SentTlb = false
		return degradeDrop(st, r.Time())
	}
	switch rep := r.(type) {
	case *report.BSReport:
		out := applyBS(st, rep, &c.scratch)
		st.SentTlb = false
		return out
	case *report.TSReport:
		windowStart := rep.T - c.p.WindowSeconds()
		if st.Tlb >= windowStart {
			c.idx.applyTSEntries(st, rep)
			validate(st, rep.T)
			st.SentTlb = false
			return Outcome{Ready: true}
		}
		// Beyond the fixed window. An enlarged report whose dummy Tlb
		// reaches back to (or past) ours covers everything we missed.
		if rep.Dummy != nil && rep.Dummy.Tlb <= st.Tlb {
			c.idx.applyTSEntries(st, rep)
			validate(st, rep.T)
			st.SentTlb = false
			st.Salvages++
			return Outcome{Ready: true}
		}
		if st.Cache.Len() == 0 {
			// Nothing worth salvaging: skip the feedback round-trip.
			validate(st, rep.T)
			st.SentTlb = false
			return Outcome{Ready: true}
		}
		if !st.SentTlb {
			st.SentTlb = true
			st.FeedbackDeliveredAt = math.Inf(1)
			return Outcome{Send: &ControlMsg{Feedback: &report.Feedback{
				Client: st.ID,
				Tlb:    st.Tlb,
			}}}
		}
		// We already asked. If this report was broadcast after the
		// server had our feedback in hand and it still is not helpful,
		// the server judged the cache unsalvageable: discard it. If the
		// feedback was still in flight at broadcast time, keep waiting.
		if rep.T >= st.FeedbackDeliveredAt {
			dropAll(st)
			validate(st, rep.T)
			st.SentTlb = false
			return Outcome{Ready: true}
		}
		return Outcome{}
	default:
		panic("core: adaptive client received " + r.Kind().String())
	}
}

// HandleValidity implements ClientSide.
func (c *adaptiveClient) HandleValidity(*ClientState, *report.ValidityReport, float64) Outcome {
	panic("core: adaptive client received a validity report")
}
