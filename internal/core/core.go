// Package core implements the cache-invalidation schemes the paper
// defines and evaluates: the plain broadcasting-timestamps algorithm (TS),
// amnesic terminals (AT), TS with validity checking ("simple checking",
// Wu et al.), bit sequences (BS, Jing et al.), and the paper's two
// contributions — the adaptive invalidation reports with fixed window
// (AFW) and with adjusting window (AAW).
//
// Each scheme is split into a server side (what report to broadcast every
// L seconds, how to answer uplink control messages) and a client side (how
// a received report changes the cache and what, if anything, to send
// uplink). The simulation engine hosts both and moves the messages over
// the simulated channels; everything protocol-specific lives here, so the
// schemes can also be driven directly by unit tests without a simulator.
package core

import (
	"fmt"
	"math"
	"sort"

	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// Params are the protocol constants shared by server and clients.
type Params struct {
	// N is the database size in items.
	N int
	// L is the broadcast period in seconds.
	L float64
	// W is the invalidation window in broadcast intervals.
	W int
	// Rep is the message size model.
	Rep report.Params
}

// WindowSeconds reports w*L, the span covered by a default window report.
func (p Params) WindowSeconds() float64 { return float64(p.W) * p.L }

// DefaultParams mirrors Table 1: L = 20 s, w = 10 intervals.
func DefaultParams(n int) Params {
	return Params{N: n, L: 20, W: 10, Rep: report.DefaultParams(n)}
}

// ControlMsg is an uplink validation message: exactly one field is set.
type ControlMsg struct {
	Check    *report.CheckRequest
	Feedback *report.Feedback
}

// SizeBits reports the message size under the paper's formulas.
func (m *ControlMsg) SizeBits(p report.Params) int {
	switch {
	case m.Check != nil:
		return m.Check.SizeBits(p)
	case m.Feedback != nil:
		return m.Feedback.SizeBits(p)
	default:
		panic("core: empty control message")
	}
}

// ServerSide is the per-run server half of a scheme.
type ServerSide interface {
	// BuildReport constructs the invalidation report broadcast at time
	// now, reading the server database d.
	BuildReport(d *db.Database, now float64) report.Report
	// HandleControl processes an uplink validation message arriving at
	// time now; a non-nil result is a validity report to send back to the
	// client.
	HandleControl(d *db.Database, msg *ControlMsg, now float64) *report.ValidityReport
}

// ClientState is the per-client protocol state every scheme operates on.
type ClientState struct {
	// ID identifies the client in uplink messages.
	ID int32
	// Cache is the client's buffer pool.
	Cache *cache.Cache
	// Tlb is the timestamp of the latest report (or validity reply)
	// through which the cache has been validated. Queries arriving at
	// time t may be answered from cache once Tlb > t.
	Tlb float64
	// SentTlb is set while a Tlb feedback is outstanding (adaptive
	// schemes): sent, and not yet answered by a helpful report.
	SentTlb bool
	// FeedbackDeliveredAt is when the outstanding feedback finished its
	// uplink transmission; +Inf while still in flight. A client only
	// concludes "the server ignored my feedback" — and drops its cache —
	// from a report broadcast after the feedback had actually arrived.
	FeedbackDeliveredAt float64
	// AwaitingValidity is set between sending a check request and
	// receiving the validity report (checking scheme).
	AwaitingValidity bool
	// PendingCheckIDs records the id order of the outstanding check
	// request; the validity bitmap is interpreted positionally against it.
	PendingCheckIDs []int32
	// CheckSeq numbers check requests so replies to abandoned exchanges
	// are recognized and ignored.
	CheckSeq int64
	// Epoch is the last recovery epoch seen in a report marker (0 until
	// the server first crashes; see report.RecoveryMarker).
	Epoch int32

	// Sequence-fence state (armed only under the adversarial-delivery
	// layer; see population.Config.FenceSeq and DESIGN.md §13). LastSeq is
	// the broadcast sequence number of the last report processed and
	// HasSeq whether one has been processed since the fence was last
	// reset; the client resets the fence across disconnections, so an
	// ordinary sleep is judged by the paper's Tlb window logic, not by
	// missed sequence numbers. SeqGap is set by the fence when it detects
	// missing broadcasts and consumed (read-and-cleared) by the scheme
	// handler via seqGate.
	LastSeq uint32
	HasSeq  bool
	SeqGap  bool

	// Ext holds scheme-specific per-client state (e.g. the SIG scheme's
	// previously heard combined signatures).
	Ext any

	// Drops counts full-cache discards; Salvages counts long-
	// disconnection revalidations that kept the cache.
	Drops    int64
	Salvages int64
}

// AbandonPending clears in-flight validation state. The hosting client
// calls it on disconnection: a reply or special report that arrives for
// the abandoned exchange must not be applied, and the next reconnection
// starts the protocol round afresh.
func (st *ClientState) AbandonPending() {
	st.AwaitingValidity = false
	st.SentTlb = false
	st.CheckSeq++
}

// Outcome tells the hosting client process what a protocol step decided.
type Outcome struct {
	// Ready reports that the cache is now validated through a new Tlb;
	// pending queries older than Tlb may consult the cache.
	Ready bool
	// Send, if non-nil, is a control message to transmit uplink.
	Send *ControlMsg
	// EpochDegrade reports that this outcome was forced by a recovery
	// marker: the report's server cannot vouch for the client's gap, so
	// the scheme degraded (dropped the cache, or fell back to checking)
	// rather than risk serving stale data.
	EpochDegrade bool
}

// ClientSide is the per-client half of a scheme. Implementations keep all
// mutable state in ClientState, so one ClientSide value may serve many
// clients.
type ClientSide interface {
	// HandleReport processes a broadcast report received at time now.
	HandleReport(st *ClientState, r report.Report, now float64) Outcome
	// HandleValidity processes a validity reply (checking scheme only;
	// others panic, since the server never sends one).
	HandleValidity(st *ClientState, v *report.ValidityReport, now float64) Outcome
}

// CrashRecoverable is implemented by server sides holding in-memory
// protocol state beyond the durable database; the hosting server calls
// OnServerCrash when the simulated server process dies, modeling the
// loss of that state (pending feedback, incremental signatures).
type CrashRecoverable interface {
	OnServerCrash()
}

// Scheme names and constructs the two halves of an invalidation method.
type Scheme interface {
	// Name is the identifier used in configs and result tables.
	Name() string
	// NewServer creates the server half for one simulation run.
	NewServer(p Params) ServerSide
	// NewClient creates the (shareable) client half.
	NewClient(p Params) ClientSide
}

// tsIndex is the fan-out side of the Figure 1 invalidation step: a dense
// id → update-timestamp table over the N-item space, built once per TS
// report and shared by every client a ClientSide serves (the compact
// report-side indicator, after Cohen–Einziger–Scalosub, arXiv:2104.01386).
// The table is keyed by the report pointer, which is sound because a
// report is immutable once delivered (see package report); holding the
// pointer also keeps the report alive, so its address cannot be reused by
// a different broadcast.
type tsIndex struct {
	n       int              // item-space size N
	rep     *report.TSReport // the report ts indexes; nil before the first build
	ts      []float64        // id -> newest update TS in rep, -Inf where rep lists none
	entries []cache.Entry    // scratch for the cache walk
}

// index returns the table for r, rebuilding it only when r is not the
// report it already holds. The rebuild clears through the previous
// report's ids, so it costs O(|previous| + |r|), never O(N).
//
// Hot path: once per broadcast per ClientSide; the table is sized once per run.
//
//mobicache:hot
func (x *tsIndex) index(r *report.TSReport) []float64 {
	if r == x.rep {
		return x.ts
	}
	if x.ts == nil {
		//lint:allow hotalloc sized once per run at the item-space size N; every rebuild reuses it
		x.ts = make([]float64, x.n)
		for i := range x.ts {
			x.ts[i] = math.Inf(-1)
		}
	}
	if x.rep != nil {
		for _, e := range x.rep.Entries {
			x.ts[e.ID] = math.Inf(-1)
		}
	}
	for _, e := range r.Entries {
		if e.TS > x.ts[e.ID] {
			x.ts[e.ID] = e.TS
		}
	}
	x.rep = r
	return x.ts
}

// applyTSEntries performs the Figure 1 invalidation step: discard every
// cached item the report lists with a newer update timestamp, then stamp
// the survivors as validated at the report time. It walks whichever of
// the cache and the report is shorter. Both walks invalidate the same set
// and removal never reorders the survivors; only the order of the
// Invalidate calls differs (MRU order against report order).
//
// Fan-out cost: applying a TS report costs a client O(min(Len, entries))
// cache operations — nothing for an empty cache, a walk of its own
// Entries against the report's shared index when it holds fewer items
// than the report lists, one Peek per entry otherwise — plus one
// O(entries) index build per broadcast, shared by every client of the
// ClientSide. The index is keyed by the report pointer, which relies on
// reports being immutable once delivered (see package report).
//
// Hot path: once per client per broadcast.
//
//mobicache:hot
func (x *tsIndex) applyTSEntries(st *ClientState, r *report.TSReport) {
	n := st.Cache.Len()
	if n == 0 {
		return
	}
	if n < len(r.Entries) {
		x.invalidateByCache(st.Cache, r)
	} else {
		invalidateByReport(st.Cache, r.Entries)
	}
	st.Cache.TouchAll(r.T)
}

// invalidateByCache checks each cached entry against r's index.
//
// Hot path: O(cache) per client plus the shared index build.
//
//mobicache:hot
func (x *tsIndex) invalidateByCache(c *cache.Cache, r *report.TSReport) {
	ts := x.index(r)
	if n := c.Len(); cap(x.entries) < n {
		//lint:allow hotalloc grows at most to the largest cache capacity the ClientSide serves, then is reused
		x.entries = make([]cache.Entry, 0, n)
	}
	x.entries = c.Entries(x.entries[:0])
	for _, e := range x.entries {
		if e.TS < ts[e.ID] {
			c.Invalidate(e.ID)
		}
	}
}

// invalidateByReport probes the cache once per report entry.
//
// Hot path: O(report) per client.
//
//mobicache:hot
func invalidateByReport(c *cache.Cache, entries []db.UpdateEntry) {
	for _, e := range entries {
		if cached, ok := c.Peek(e.ID); ok && cached.TS < e.TS {
			c.Invalidate(e.ID)
		}
	}
}

// dropAll empties the cache and counts it.
func dropAll(st *ClientState) {
	st.Cache.DropAll()
	st.Drops++
}

// epochGate inspects r's recovery marker. It records the newest epoch in
// st and reports whether the client must degrade: a Tlb below the trust
// floor means the restarted server cannot vouch for the report's coverage
// of the client's gap (its in-memory history died with it), so applying
// the report normally could validate stale items.
func epochGate(st *ClientState, r report.Report) bool {
	m := report.MarkerOf(r)
	if m == nil {
		return false
	}
	st.Epoch = m.Epoch
	return st.Tlb < m.TrustFloor
}

// seqGate consumes the sequence fence's pending gap verdict: true when
// the fence detected missing broadcasts before this report. A detected
// gap is treated exactly like a disconnection longer than the window —
// the handler takes the same conservative path epochGate forces — so
// every scheme merges seqGate into its epochGate result. Read-and-clear,
// and evaluated unconditionally alongside epochGate so the flag can
// never leak into a later report.
func seqGate(st *ClientState) bool {
	g := st.SeqGap
	st.SeqGap = false
	return g
}

// ResetSeqFence forgets the fence position. The client calls it on
// disconnect: broadcasts missed while asleep are the paper's problem
// (Tlb window logic), not a delivery anomaly.
func (st *ClientState) ResetSeqFence() {
	st.HasSeq = false
	st.SeqGap = false
}

// degradeDrop is the default epoch-degrade action (every scheme except
// ts-check): discard whatever the cache holds and revalidate at the
// report time, exactly as if the client had slept past the window.
func degradeDrop(st *ClientState, t float64) Outcome {
	if st.Cache.Len() > 0 {
		dropAll(st)
	}
	validate(st, t)
	return Outcome{Ready: true, EpochDegrade: true}
}

// validate marks the cache validated through t.
func validate(st *ClientState, t float64) {
	st.Tlb = t
}

// tsBn reports TS(B_n) for the current database state: the update time of
// the (N/2+1)-th most recently updated item, or the epoch when at most
// N/2 distinct items were ever updated (then the bit-sequences structure
// can salvage arbitrarily old caches). It reads the database's depth
// index, so it costs O(1).
func tsBn(d *db.Database) float64 {
	return max(d.LevelTS(0), bitseq.Epoch)
}

// Registry maps scheme names to constructors.
var Registry = map[string]Scheme{}

func register(s Scheme) {
	if _, dup := Registry[s.Name()]; dup {
		panic("core: duplicate scheme " + s.Name())
	}
	Registry[s.Name()] = s
}

// Lookup finds a scheme by name.
func Lookup(name string) (Scheme, error) {
	s, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", name)
	}
	return s, nil
}

// Names lists the registered scheme names in sorted order, so that help
// text, sweeps and reports iterate schemes deterministically.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for name := range Registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
