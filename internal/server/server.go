// Package server implements the mobile support station of the simulation:
// the single data server of paper §4. It owns the database, applies the
// update stream (exponential interarrival, pattern-driven item choice),
// broadcasts an invalidation report every L seconds on the downlink, and
// answers uplink validity-control and data-fetch requests.
package server

import (
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/metrics"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/stats"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// Receiver is the server's view of a mobile client. Broadcast deliveries
// are fanned out to every connected receiver; validity replies and data
// items are addressed to one.
type Receiver interface {
	// ID is the client identifier used in uplink messages.
	ID() int32
	// Connected reports whether the client is currently listening.
	Connected() bool
	// DeliverReport hands over a fully received invalidation report.
	DeliverReport(r report.Report, now sim.Time)
	// DeliverValidity hands over a validity reply.
	DeliverValidity(v *report.ValidityReport, now sim.Time)
	// DeliverItem hands over one fetched data item with the version and
	// last-update timestamp it carried when transmission completed.
	DeliverItem(id int32, version int32, ts float64, now sim.Time)
	// DeliverBusy hands over the server's admission-control rejection of a
	// fetch for the given item (Config.PendingCap exceeded).
	DeliverBusy(id int32, now sim.Time)
}

// Config carries the server-side parameters.
type Config struct {
	// Scheme is the invalidation method's server half.
	Scheme core.ServerSide
	// Params are the shared protocol constants.
	Params core.Params
	// ItemBits is the downlink cost of one data item.
	ItemBits float64
	// UpdateAccess picks the items touched by an update transaction.
	UpdateAccess workload.Access
	// UpdateItems is the per-transaction item count distribution.
	UpdateItems rng.IntDist
	// MeanUpdateInterarrival is the expected seconds between update
	// transactions.
	MeanUpdateInterarrival float64
	// Tracer records protocol events when non-nil.
	Tracer *trace.Tracer
	// CrashMTBF and CrashMTTR enable server crash/restart fault injection
	// (exponential mean time between failures and mean repair time, both
	// in seconds; 0 disables). While down, the server broadcasts nothing
	// and drops every uplink message. Restarting loses the in-memory
	// protocol state (core.CrashRecoverable) but not the durable database;
	// every report after the first crash carries a report.RecoveryMarker
	// so clients can tell which history gaps the server no longer vouches
	// for. The update stream models the origin tier and keeps running.
	CrashMTBF float64
	CrashMTTR float64
	// CrashRNG drives crash/repair timing; required when CrashMTBF > 0.
	CrashRNG *rng.Source
	// PendingCap bounds the pending-fetch table: the admitted fetch
	// transmissions queued on the downlink. A fetch arriving beyond the
	// cap is answered with a deterministic busy reply (DeliverBusy)
	// instead of growing the backlog. 0 = unbounded. Setting PendingCap
	// or Coalesce routes fetches through the admission path; with both
	// zero the legacy one-transmission-per-request path runs untouched.
	PendingCap int
	// Coalesce merges concurrent fetches of the same item id into one
	// downlink transmission whose completion is fanned out to every
	// requester, so a hot-spot storm costs O(distinct items) downlink
	// bits instead of O(requests).
	Coalesce bool
}

// pendingFetch is one admitted item transmission in the pending table.
// The epoch stamp keeps the table's population counter exact across
// server crashes: a crash clears the table (in-memory state loss), and
// completions from a previous epoch must not decrement the new count.
// w0 is the requester of record, the admitting client; more holds the
// waiters coalesced on later, in arrival order. The record is its own
// downlink completion (Fire) and, while ItemTxStart is traced, its own
// transmission-start observer (TxStart), so a send binds nothing.
type pendingFetch struct {
	s     *Server
	id    int32
	epoch int32
	w0    Receiver
	more  []Receiver
}

// TxStart traces the transmission's start, attributed to the requester
// of record (w0); waiters coalesced on later share the service phase and
// get no transmission stamp of their own.
func (p *pendingFetch) TxStart(t sim.Time) {
	p.s.traceItem(trace.ItemTxStart, t, p.w0.ID(), p.id)
}

// Fire is the transmission's completion: it tears down the table entry
// and fans the item out to every coalesced waiter. The teardown is
// identity- and epoch-guarded: a later fetch of the same id (no
// coalescing) or a crash may have replaced or cleared the entry, and
// post-crash completions must not decrement the new epoch's population.
func (p *pendingFetch) Fire() {
	s := p.s
	if s.pending[p.id] == p {
		s.pending[p.id] = nil
	}
	if p.epoch == s.epoch {
		s.pendingN--
	}
	ver, ts, done := s.serveItem(p.id)
	p.w0.DeliverItem(p.id, ver, ts, done)
	for _, w := range p.more {
		w.DeliverItem(p.id, ver, ts, done)
	}
}

// itemSend is one item transmission of the plain fetch path (neither
// PendingCap nor Coalesce): its own completion and, while ItemTxStart is
// traced, its own transmission-start observer. Like pendingFetch it is
// never recycled: the delivery adversary may fire it twice or never. It
// is a type of its own because it needs no table fields: every paper
// figure takes this path, and its record is half pendingFetch's size.
type itemSend struct {
	s  *Server
	rc Receiver
	id int32
}

// TxStart traces the transmission's start.
func (x *itemSend) TxStart(t sim.Time) {
	x.s.traceItem(trace.ItemTxStart, t, x.rc.ID(), x.id)
}

// Fire delivers the item to its requester.
func (x *itemSend) Fire() {
	ver, ts, done := x.s.serveItem(x.id)
	x.rc.DeliverItem(x.id, ver, ts, done)
}

// serveItem counts one completed item transmission and returns the
// version and last-update timestamp the item carries, stamped now.
func (s *Server) serveItem(id int32) (ver int32, ts float64, now sim.Time) {
	s.ItemsServed++
	ts = s.db.LastUpdate(id)
	if ts < 0 {
		ts = 0 // never updated: the initial version, valid forever
	}
	return s.db.Version(id), ts, s.k.Now()
}

// validitySend is one validity reply on the downlink: its own completion
// and, while ValidityTxStart is traced, its own transmission-start
// observer.
type validitySend struct {
	s  *Server
	rc Receiver
	v  *report.ValidityReport
}

// TxStart traces the reply's transmission start.
func (x *validitySend) TxStart(t sim.Time) {
	x.s.cfg.Tracer.Record(trace.Event{T: t, Kind: trace.ValidityTxStart, Client: x.v.Client})
}

// Fire delivers the reply to its client.
func (x *validitySend) Fire() { x.rc.DeliverValidity(x.v, x.s.k.Now()) }

// Server is the mobile support station.
type Server struct {
	cfg  Config
	k    *sim.Kernel
	db   *db.Database
	down *netsim.Channel
	// rcv is the uplink endpoint table, indexed by client id; a nil slot
	// is an unknown client. all is the broadcast fan-out in attach order.
	rcv []Receiver
	all []Receiver

	updRNG     *rng.Source
	updScratch []int32

	// Admission-control state (allocated only when PendingCap or
	// Coalesce is set): the pending-fetch table indexed by item id (nil =
	// nothing pending), and its population. pendingN counts admitted
	// transmissions, which can briefly exceed the non-nil slots when,
	// without coalescing, a second fetch for an already-pending item
	// overwrites the slot (each transmission still completes and
	// decrements exactly once, epoch-guarded).
	pending  []*pendingFetch
	pendingN int
	// freeFetch is the pending-fetch freelist. Only a record whose send
	// the downlink shed comes back here: the channel keeps nothing from a
	// shed send, so reuse is exact, and the record never entered the
	// table. The list never holds more than one record (admitFetch takes
	// it, and gives it back only when the send is shed), so one slot
	// suffices. An admitted record is never recycled, because
	// the delivery adversary may run its completion twice (a duplicate)
	// or never (a partition), and a duplicate must reach the same waiters
	// with the same side effects as the first run: Cache.Put through
	// DeliverItem, the ItemDelivered trace, ItemsServed and the
	// epoch-guarded pendingN decrement.
	freeFetch *pendingFetch

	// The update, broadcast and crash loops run as scheduled callbacks.
	// The two that fire throughout a run are bound once in New, so
	// rescheduling them allocates nothing. irNext counts broadcast
	// periods: the next report is due at irNext·L.
	updateFn, broadcastFn func()
	irNext                int64

	// irSeq is the broadcast sequence counter stamped into every report's
	// frame header. Monotonic across crashes: restart semantics are
	// carried by the recovery marker, not by resetting the fence.
	irSeq uint32

	// Crash/restart state.
	isDown     bool
	epoch      int32   // recovery epochs announced so far (0 = never crashed)
	trustFloor float64 // last restart time
	crashedAt  float64 // start of the current/most recent outage
	awaitingIR bool    // restart happened, first post-restart report not yet built

	// Statistics.
	ReportsSent   map[report.Kind]int64
	ReportBits    map[report.Kind]float64
	IROverruns    int64 // reports still in flight at the next period
	lastIRDone    sim.Time
	ChecksServed  int64
	FeedbacksSeen int64
	ItemsServed   int64
	Crashes       int64
	Downtime      float64
	// RecoveryLatency observes, per crash, the blackout clients saw: from
	// the crash instant to the first post-restart report broadcast.
	RecoveryLatency  stats.Tally
	DroppedWhileDown int64 // uplink messages that arrived at a dead server
	CoalescedFetches int64 // fetches merged into an already-pending transmission
	BusyReplies      int64 // fetches rejected by admission control
	RepliesShed      int64 // validity/busy replies tail-dropped by a bounded downlink

	// Last-broadcast snapshot, maintained unconditionally (plain
	// assignments: no allocation, no randomness, no events) so the
	// observability timeline can poll what the scheme chose each interval.
	broadcasts int64       // reports actually transmitted
	lastKind   report.Kind // kind of the most recent report
	lastBits   float64     // its size
	lastW      float64     // its effective window w' in intervals (0 for BS/AT/SIG)
}

// New creates a server. updSeed feeds the update process RNG.
func New(k *sim.Kernel, d *db.Database, down *netsim.Channel, cfg Config, updRNG *rng.Source) *Server {
	s := &Server{
		cfg:         cfg,
		k:           k,
		db:          d,
		down:        down,
		updRNG:      updRNG,
		ReportsSent: make(map[report.Kind]int64),
		ReportBits:  make(map[report.Kind]float64),
	}
	if cfg.PendingCap > 0 || cfg.Coalesce {
		s.pending = make([]*pendingFetch, d.N())
	}
	s.updateFn, s.broadcastFn = s.update, s.broadcast
	return s
}

// Attach registers a client as a broadcast receiver and uplink endpoint.
// The endpoint table grows to the highest id attached.
func (s *Server) Attach(r Receiver) {
	id := r.ID()
	if n := int(id) + 1; n > len(s.rcv) {
		s.rcv = append(s.rcv, make([]Receiver, n-len(s.rcv))...)
	}
	if s.rcv[id] != nil {
		panic("server: duplicate client id")
	}
	s.rcv[id] = r
	s.all = append(s.all, r)
}

// receiver returns the attached client with the given id, or nil.
func (s *Server) receiver(id int32) Receiver {
	if id < 0 || int(id) >= len(s.rcv) {
		return nil
	}
	return s.rcv[id]
}

// Detach removes a client (it moved to another cell). Unknown ids are
// ignored: a validity reply or fetch already queued for a departed client
// is delivered into the void by the caller's choice, not an error here.
func (s *Server) Detach(id int32) {
	if s.receiver(id) == nil {
		return
	}
	s.rcv[id] = nil
	for i, r := range s.all {
		if r.ID() == id {
			s.all = append(s.all[:i], s.all[i+1:]...)
			break
		}
	}
}

// Database exposes the server database (the engine's consistency checker
// reads it).
func (s *Server) Database() *db.Database { return s.db }

// ResetStats zeroes the server's measurement counters (warmup boundary).
func (s *Server) ResetStats() {
	s.ReportsSent = make(map[report.Kind]int64)
	s.ReportBits = make(map[report.Kind]float64)
	s.IROverruns = 0
	s.ChecksServed = 0
	s.FeedbacksSeen = 0
	s.ItemsServed = 0
	s.Crashes = 0
	s.Downtime = 0
	s.RecoveryLatency = stats.Tally{}
	s.DroppedWhileDown = 0
	s.CoalescedFetches = 0
	s.BusyReplies = 0
	s.RepliesShed = 0
}

// Start launches the update and broadcast loops, plus the crash/restart
// loop when fault injection is configured. Each loop begins with one
// zero-delay event that draws or schedules its first step.
func (s *Server) Start() {
	s.StartUpdates()
	s.StartBroadcast()
	if s.cfg.CrashMTBF > 0 {
		if s.cfg.CrashRNG == nil {
			panic("server: CrashMTBF set without CrashRNG")
		}
		s.k.Schedule(0, s.scheduleCrash)
	}
}

// Down reports whether the server is currently crashed.
func (s *Server) Down() bool { return s.isDown }

// RegisterMetrics registers the server's timeline columns on reg: the
// report kind the scheme chose each interval (paper notation, "-" when
// the server broadcast nothing), its size and effective window w', the
// crash state, and per-interval service counts. No-op on a nil registry.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	var prevBroadcasts int64
	reg.LabelFunc("report_kind", func() string {
		if s.broadcasts == prevBroadcasts {
			return "-" // silent boundary: crashed, or t=0 sample
		}
		prevBroadcasts = s.broadcasts
		return s.lastKind.IRName()
	})
	reg.GaugeFunc("report_bits", func() float64 { return s.lastBits })
	reg.GaugeFunc("window_w", func() float64 { return s.lastW })
	reg.GaugeFunc("server_down", func() float64 {
		if s.isDown {
			return 1
		}
		return 0
	})
	reg.DeltaFunc("server_crashes", func() float64 { return float64(s.Crashes) })
	reg.DeltaFunc("checks_served", func() float64 { return float64(s.ChecksServed) })
	reg.DeltaFunc("items_served", func() float64 { return float64(s.ItemsServed) })
	reg.DeltaFunc("coalesced", func() float64 { return float64(s.CoalescedFetches) })
	reg.DeltaFunc("busy_replies", func() float64 { return float64(s.BusyReplies) })
}

// Epoch reports the current recovery epoch (0 until the first crash).
func (s *Server) Epoch() int32 { return s.epoch }

// The crash loop alternates exponential up-times and outages. A crash
// loses every piece of in-memory protocol state — the scheme's history
// window is implicit in the durable database, so its loss is modeled by
// the recovery marker truncating post-restart reports
// (report.ApplyRecovery); explicitly held state (pending feedback,
// incremental signatures) is cleared through core.CrashRecoverable.

// scheduleCrash draws the next up-time.
func (s *Server) scheduleCrash() {
	s.k.Schedule(s.cfg.CrashRNG.Exp(s.cfg.CrashMTBF), s.crash)
}

// crash takes the server down and draws the repair time.
func (s *Server) crash() {
	now := s.k.Now()
	s.isDown = true
	s.crashedAt = now
	s.epoch++
	s.Crashes++
	if cr, ok := s.cfg.Scheme.(core.CrashRecoverable); ok {
		cr.OnServerCrash()
	}
	// The pending-fetch table is in-memory protocol state: a crash loses
	// it. Transmissions already on the downlink still complete (the
	// channel is not the server), but their epoch-stamped completions no
	// longer touch the new epoch's population count.
	clear(s.pending)
	s.pendingN = 0
	s.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ServerCrash,
		Client: -1, B: int64(s.epoch)})
	s.k.Schedule(s.cfg.CrashRNG.Exp(s.cfg.CrashMTTR), s.restart)
}

// restart brings the server back and draws the next up-time.
func (s *Server) restart() {
	now := s.k.Now()
	s.isDown = false
	s.trustFloor = now
	s.awaitingIR = true
	s.Downtime += now - s.crashedAt
	s.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ServerRestart,
		Client: -1, B: int64(s.epoch)})
	s.scheduleCrash()
}

// StartUpdates launches only the update loop. In a multi-cell setup the
// database is logically replicated: exactly one server applies the
// update stream to the shared database and every cell broadcasts from it.
func (s *Server) StartUpdates() {
	s.k.Schedule(0, s.scheduleUpdate)
}

// StartBroadcast launches only the periodic report broadcaster.
func (s *Server) StartBroadcast() {
	s.irNext = 1
	s.k.Schedule(0, func() { s.k.At(s.cfg.Params.L, s.broadcastFn) })
}

// scheduleUpdate draws the interarrival time of the next update
// transaction (paper §4: exponential).
func (s *Server) scheduleUpdate() {
	s.k.Schedule(s.updRNG.Exp(s.cfg.MeanUpdateInterarrival), s.updateFn)
}

// update applies one update transaction, then schedules the next.
func (s *Server) update() {
	k := s.cfg.UpdateItems.Draw(s.updRNG)
	s.updScratch = s.cfg.UpdateAccess.Sample(s.updRNG, k, s.updScratch[:0])
	now := s.k.Now()
	for _, id := range s.updScratch {
		s.db.Update(id, now)
	}
	s.scheduleUpdate()
}

// broadcast emits the invalidation report due at irNext·L, then
// schedules the next period's. A dead server broadcasts nothing; clients
// see a silent period boundary exactly as if the report were lost.
func (s *Server) broadcast() {
	if !s.isDown {
		s.emitReport(float64(s.irNext) * s.cfg.Params.L)
	}
	s.irNext++
	s.k.At(float64(s.irNext)*s.cfg.Params.L, s.broadcastFn)
}

// emitReport builds the report for period boundary t and queues it on
// the downlink. The report class preempts the downlink, so transmission
// always begins exactly on the period boundary (paper §4's priority
// rule).
func (s *Server) emitReport(t float64) {
	if s.lastIRDone > t {
		// The previous report is still being transmitted: the channel
		// cannot start this one on time. Count it; a report never preempts
		// a report, so the channel queues it FIFO behind its predecessor.
		s.IROverruns++
	}
	r := s.cfg.Scheme.BuildReport(s.db, t)
	// Every report carries a monotonically increasing broadcast sequence
	// number in its frame header; clients fence on it to detect gaps,
	// duplicates, and reorders (DESIGN.md §13). A plain counter — no
	// randomness, no events — so it is always on.
	s.irSeq++
	report.SetSeq(r, s.irSeq)
	if s.epoch > 0 {
		// Every report after the first crash announces the current epoch
		// and trust floor; ApplyRecovery also censors any history claims
		// reaching below the floor.
		report.ApplyRecovery(r, report.RecoveryMarker{Epoch: s.epoch, TrustFloor: s.trustFloor})
	}
	if s.awaitingIR {
		s.awaitingIR = false
		s.RecoveryLatency.Observe(t - s.crashedAt)
	}
	bits := float64(r.SizeBits(s.cfg.Params.Rep))
	kind := r.Kind()
	s.ReportsSent[kind]++
	s.ReportBits[kind] += bits
	s.broadcasts++
	s.lastKind = kind
	s.lastBits = bits
	if tsr, ok := r.(*report.TSReport); ok {
		// The report's own window start is authoritative: for AAW's
		// enlarged reports it reaches back to the oldest requesting Tlb,
		// so this is exactly the adjusted window w' of Figure 4.
		s.lastW = (t - tsr.WindowStart) / s.cfg.Params.L
	} else {
		s.lastW = 0
	}
	s.cfg.Tracer.Record(trace.Event{T: t, Kind: trace.ReportBroadcast,
		Client: -1, A: int64(kind), B: int64(bits)})
	s.lastIRDone = t + s.down.TxTime(bits)
	//lint:allow errcheck-sim the report class is exempt from bounded-queue admission and is never shed
	s.down.Send(netsim.ClassReport, bits, nil, sim.Func(func() {
		now := s.k.Now()
		for _, rc := range s.all {
			if rc.Connected() {
				rc.DeliverReport(r, now)
			}
		}
	}))
}

// OnControl is the uplink endpoint for validation messages; the channel
// layer calls it when a client's control message finishes transmission.
func (s *Server) OnControl(msg *core.ControlMsg, now sim.Time) {
	if s.cfg.Tracer.Enabled(trace.ControlArrived) {
		from, kindArg := int32(-1), int64(0)
		if msg.Feedback != nil {
			from, kindArg = msg.Feedback.Client, 1
		} else if msg.Check != nil {
			from = msg.Check.Client
		}
		dropped := int64(0)
		if s.isDown {
			dropped = 1
		}
		s.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ControlArrived,
			Client: from, A: kindArg, B: dropped})
	}
	if s.isDown {
		// Nobody is listening; the client's timeout/backoff recovers.
		s.DroppedWhileDown++
		return
	}
	if msg.Feedback != nil {
		s.FeedbacksSeen++
	}
	v := s.cfg.Scheme.HandleControl(s.db, msg, now)
	if v == nil {
		return
	}
	s.ChecksServed++
	rc := s.receiver(v.Client)
	if rc == nil {
		panic("server: validity reply for unknown client")
	}
	bits := float64(v.SizeBits(s.cfg.Params.Rep))
	s.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ValiditySent,
		Client: v.Client, B: int64(bits)})
	x := &validitySend{s: s, rc: rc, v: v}
	var tx netsim.TxObserver
	if s.cfg.Tracer.Enabled(trace.ValidityTxStart) {
		tx = x
	}
	if !s.down.Send(netsim.ClassControl, bits, tx, x) {
		// Tail-dropped by a bounded downlink: the client's control timeout
		// or query deadline abandons the exchange and the next broadcast
		// report regenerates it.
		s.RepliesShed++
	}
}

// OnFetch is the uplink endpoint for data requests: it queues one
// downlink transmission per requested item. Item payloads are stamped
// with the version current when their transmission completes. With
// admission control or coalescing configured, requests route through the
// pending-fetch table instead (admitFetch); otherwise this legacy path
// runs byte-for-byte as before.
func (s *Server) OnFetch(clientID int32, ids []int32, now sim.Time) {
	if s.cfg.Tracer.Enabled(trace.FetchArrived) {
		dropped := int64(0)
		if s.isDown {
			dropped = 1
		}
		s.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.FetchArrived,
			Client: clientID, A: int64(len(ids)), B: dropped})
	}
	if s.isDown {
		s.DroppedWhileDown++
		return
	}
	rc := s.receiver(clientID)
	if rc == nil {
		panic("server: fetch from unknown client")
	}
	for _, id := range ids {
		if s.cfg.PendingCap > 0 || s.cfg.Coalesce {
			s.admitFetch(rc, id, now)
			continue
		}
		x := &itemSend{s: s, rc: rc, id: id}
		var tx netsim.TxObserver
		if s.cfg.Tracer.Enabled(trace.ItemTxStart) {
			tx = x
		}
		if !s.down.Send(netsim.ClassData, s.cfg.ItemBits, tx, x) {
			// Tail-dropped by a bounded downlink; the client's backed-off
			// re-request or query deadline recovers.
			continue
		}
	}
}

// admitFetch routes one requested item through the pending-fetch table:
// coalesce onto an already-pending transmission of the same item, reject
// with a busy reply beyond the high-water mark, or send a new downlink
// transmission whose completion is fanned out to every coalesced waiter.
// Only an admitted send enters the table: nothing reads it between the
// send and its completion, which the channel always schedules.
//
// hot path: once per requested item under admission control; a fetch the
// bounded downlink sheds reuses a freelist record, touches no table and
// allocates nothing (BenchmarkServerFetchShed); an admitted one allocates
// its record alone, traced or not (BenchmarkServerFetchAdmit).
func (s *Server) admitFetch(rc Receiver, id int32, now sim.Time) {
	if s.cfg.Coalesce {
		if p := s.pending[id]; p != nil {
			//lint:allow hotalloc a coalesced waiter joins an admitted record, which is never recycled; more grows only past the inline first waiter, never on the shed path
			p.more = append(p.more, rc)
			s.CoalescedFetches++
			s.traceItem(trace.Coalesced, now, rc.ID(), id)
			return
		}
	}
	if s.cfg.PendingCap > 0 && s.pendingN >= s.cfg.PendingCap {
		s.busyReply(rc, id, now)
		return
	}
	p := s.freeFetch
	if p == nil {
		//lint:allow hotalloc freelist miss is the admitted path's one allocation: the record, which holds its first waiter inline and is its own completion and observer; a shed send returns its record, so the shed path reuses one
		p = &pendingFetch{s: s}
	}
	p.id, p.epoch, p.w0 = id, s.epoch, rc
	var tx netsim.TxObserver
	if s.cfg.Tracer.Enabled(trace.ItemTxStart) {
		tx = p
	}
	if !s.down.Send(netsim.ClassData, s.cfg.ItemBits, tx, p) {
		// Tail-dropped by a bounded downlink: recycle the record. The
		// requester's retry or deadline recovers.
		p.w0 = nil
		s.freeFetch = p
		return
	}
	s.freeFetch = nil
	s.pending[id] = p
	s.pendingN++
}

// traceItem records a per-item fetch event: a transmission start, a
// coalesced fetch or a busy rejection.
func (s *Server) traceItem(kind trace.Kind, t sim.Time, client, id int32) {
	s.cfg.Tracer.Record(trace.Event{T: t, Kind: kind, Client: client, A: int64(id)})
}

// busyReply answers a fetch rejected by admission control with a
// deterministic header-sized control message so the client learns
// immediately instead of timing out blind.
func (s *Server) busyReply(rc Receiver, id int32, now sim.Time) {
	s.BusyReplies++
	s.traceItem(trace.ServerBusy, now, rc.ID(), id)
	bits := float64(s.cfg.Params.Rep.HeaderBits)
	if !s.down.Send(netsim.ClassControl, bits, nil, sim.Func(func() {
		rc.DeliverBusy(id, s.k.Now())
	})) {
		s.RepliesShed++
	}
}
