// Package population implements the mobile hosts of the simulation
// (paper §4) as one struct-of-arrays value. Each client runs a closed
// query loop: think (with disconnection chances), issue a read-only query
// over a few items, wait for the next invalidation report to validate the
// cache, answer cached items locally, fetch the rest over the shared
// uplink/downlink, and repeat. Reports are processed whenever the client
// is connected, independently of the query loop.
//
// Per-client lifecycle state (gap timers, sleep schedules, query cursors,
// fence/epoch gates, churn and offline flags) lives in flat slices, caches
// are bitmap-indexed LRUs carved from shared arenas (cache.NewSet), and
// every suspension point of the query loop is an explicit continuation
// driven by kernel events. The package's contract is bit-identity with the
// process-per-client client it replaced: a run schedules the same kernel
// events in the same order, drawing the same random streams, so Results
// reproduce the digests recorded from that path (the digest tables under
// internal/engine/testdata). No goroutine stacks, no channel handoffs, no
// per-client map allocations — a million clients fit in a few hundred
// bytes each. DESIGN.md §16 states the model.
package population

import (
	"math"
	"slices"

	"mobicache/internal/bitio"
	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/stats"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// ServerAPI is the clients' view of a server's uplink endpoints; the
// engine wires it to the server package.
type ServerAPI interface {
	// OnControl delivers a validation control message.
	OnControl(msg *core.ControlMsg, now sim.Time)
	// OnFetch delivers a data request for the given items.
	OnFetch(clientID int32, ids []int32, now sim.Time)
}

// Config carries the population-wide client parameters. Per-client
// values (id, RNG stream, clock) the population derives itself.
type Config struct {
	// Clients is the population size; client ids are 0..Clients-1, their
	// index in every flat slice.
	Clients int
	// Side is the scheme's client half, shared by the whole population.
	Side core.ClientSide
	// Params are the shared protocol constants.
	Params core.Params
	// CacheCapacity is the per-client buffer pool size in items.
	CacheCapacity int
	// QueryAccess picks queried items; QueryItems their count.
	QueryAccess workload.Access
	QueryItems  rng.IntDist
	// MeanThink is the expected think time between queries and MeanDisc
	// the expected disconnection length (seconds). ProbDisc is Table 1's
	// "prob. of client disc. per interval".
	MeanThink float64
	ProbDisc  float64
	MeanDisc  float64
	// DiscPerInterval selects how ProbDisc is applied. False (default)
	// follows §4's sentence "the arrival of a new query is separated from
	// the completion of the previous query by either an exponentially
	// distributed think time or an exponentially distributed
	// disconnection time": each inter-query gap is a disconnection with
	// probability ProbDisc, otherwise a think. This keeps the downlink
	// saturated, matching the paper's "bandwidth is always fully
	// utilized" assumption. True applies ProbDisc independently at every
	// broadcast boundary crossed while thinking (the same sentence's "in
	// each broadcast interval" reading) — kept as an ablation.
	DiscPerInterval bool
	// FetchRequestBits is the uplink cost of a data request (Table 1's
	// 512-byte control message).
	FetchRequestBits float64
	// ConsistencyHook, if set, is invoked for every cache-served item with
	// the served version and the client's validation timestamp; the
	// engine uses it to verify that no stale item is ever served.
	ConsistencyHook func(clientID, itemID, version int32, tlb float64)
	// RespHist, if set, receives every query response time.
	RespHist *stats.Histogram
	// AoIHist, if set, receives an age-of-information sample for every
	// item a query answers: answer instant minus the server's last update
	// of that item. Items never updated (version 0) carry no sample.
	AoIHist *stats.Histogram
	// RespTimeline and AoITimeline, if set, receive the same samples as
	// RespHist and AoIHist for the metrics timeline's per-interval
	// quantile columns.
	RespTimeline *metrics.Histogram
	AoITimeline  *metrics.Histogram
	// Tracer, if set, records protocol events.
	Tracer *trace.Tracer
	// OnWake, if set, is invoked with the client's id when it finishes a
	// disconnection, just before it reconnects. A multi-cell coordinator
	// uses it to move the client to a different cell (Reattach) —
	// mobility happens while powered off, when no exchange is in flight.
	OnWake func(i int)
	// DownLoss is the Gilbert–Elliott bursty loss/corruption model for
	// report reception. Fading is per receiver, so each client steps its
	// own chain, seeded from its own rng stream.
	DownLoss faults.GEParams
	// Retry is the uplink timeout/backoff policy. Disabled (zero) keeps
	// the wait-forever exchanges and schedules no timeout events; enabled,
	// clients abandon stuck check/feedback exchanges (the next report
	// regenerates them) and re-request unfinished fetches with capped
	// exponential backoff.
	Retry faults.RetryPolicy
	// QueryDeadline abandons a query unanswered after this many simulated
	// seconds and counts it as timed out. 0 waits forever and schedules no
	// deadline events.
	QueryDeadline float64
	// FenceSeq arms the broadcast sequence fence: duplicates and reorders
	// are dropped idempotently, gaps force the scheme's conservative
	// long-disconnection path (DESIGN.md §13). SkewEpsilon is the assumed
	// bound ε on total clock error: with the fence armed, a report stamped
	// further than ε ahead of the client's local clock degrades like a
	// gap. 0 disables the skew guard.
	FenceSeq    bool
	SkewEpsilon float64
}

// Lifecycle continuations: where a client's state machine resumes when
// its next wake event fires. Each value is one suspension point of the
// query loop (gap, disconnect, answer); DESIGN.md §16 maps each to the
// kernel event that resumes it.
const (
	pcGapStart         uint8 = iota // top of the run loop: draw the inter-query gap
	pcAfterGap                      // gap over: wait online, then issue the next query
	pcIntervalLoop                  // per-interval think model: top of the boundary loop
	pcIntervalBoundary              // woke at a broadcast boundary: disconnection coin
	pcDiscWake                      // disconnection nap over: wait online, reconnect
	pcValidated                     // answer: waiting for Tlb to pass the query instant
	pcFetchDone                     // answer: waiting for the fetch generation to drain
)

// Park targets: which condition the client is waiting on. A client waits
// on at most one at a time, so one enum per client suffices; a release of
// condition s wakes client i exactly when parked[i] == s, as one
// zero-delay event.
const (
	parkNone      uint8 = iota
	parkValidated       // a report validated the cache
	parkFetch           // the fetch generation drained
	parkOnline          // the forced-offline hold cleared
)

// Counters are one client's measurement tallies, one struct per client
// in a flat slice. TestPopulationResetStatsZeroesEveryCounter walks this
// struct by reflection so a counter added here without warmup-reset
// handling fails the build's test tier.
type Counters struct {
	QueriesIssued        int64
	QueriesAnswered      int64
	QueriesTimedOut      int64
	QueriesShed          int64
	BusyHeard            int64
	ItemsRequested       int64
	ItemsFromCache       int64
	RespTime             stats.Tally
	Disconnections       int64
	SoloDisconnects      int64
	StormDisconnects     int64
	Crashes              int64
	RestartsWarm         int64
	RestartsCold         int64
	SnapshotRejects      int64
	OfflineDrops         int64
	DisconnectedFor      float64
	ReportsHeard         int64
	ReportsLost          int64
	ReportsCorrupted     int64
	Retries              int64
	EpochDegrades        int64
	IRGaps               int64
	IRDuplicates         int64
	IRReorders           int64
	SkewDegrades         int64
	ValidationUplinkBits float64
	ValidationUplinkMsgs int64
	FetchUplinkBits      float64
	StaleValidityDropped int64
	AoISamples           int64
	AoISum               float64
}

// route is one cell's uplink endpoint pair: the channel a client
// transmits on and the server that receives it.
type route struct {
	up     *netsim.Channel
	server ServerAPI
}

// Population is the client population: every per-client field in a flat
// slice indexed by client id, caches packed as bitmaps over the item
// space, and the query loop as the continuation machine in step.
// One broadcast tick wakes the whole cell as a batch: the server's
// fan-out calls each handle's DeliverReport inside the single
// downlink-completion event, so report application for a million clients
// is one cache-friendly sweep over the arrays.
type Population struct {
	k   *sim.Kernel
	cfg Config

	// routes is the per-cell {uplink, server} table and cell each
	// client's index into it; a single-cell run carries one entry.
	routes []route
	cell   []int32

	states  []core.ClientState
	caches  []cache.Cache
	srcs    []rng.Source
	handles []Handle
	counts  []Counters

	// Lifecycle machine.
	phase   []uint8
	parked  []uint8
	retDisc []uint8 // continuation a finished disconnect returns to

	// connected is owned by the voluntary disconnect path; the churn
	// adversary forces a host down orthogonally (offlineStorm,
	// offlineCrash), so a crash during a nap and a nap ending inside a
	// storm both resolve correctly.
	connected    []bool
	offlineStorm []bool
	offlineCrash []bool
	queryOpen    []bool
	expired      []bool

	remaining []float64 // per-interval think model: time left to think
	tq        []float64 // open query's arrival instant

	pending   []int32
	ctrlTries []int32
	fetchSeq  []int64 // fetch generations, so stale timeouts no-op
	deadline  []sim.Handle

	clocks []delivery.Clock
	ge     []*faults.GE // report reception loss/corruption, nil when clean

	queryIDs  [][]int32
	missIDs   [][]int32
	fetchIDs  [][]int32 // ids of the outstanding fetch, request order
	fetchWant [][]bool  // per fetchIDs entry: still undelivered (retry mode only)
	wantN     []int32   // set entries of fetchWant

	// Cached per-client closures: the wake (every hold and release
	// schedules it) and the query-deadline event, both built once at
	// construction so the steady state allocates neither.
	wakes       []func()
	deadlineFns []func()
}

// New builds the population: states, caches (carved from arena, which
// the population holds until its arena carves the next set), RNG
// substreams and cached closures, with every client routed to up and
// server. Client i's stream is root.Derive(1000+i); deriving does not
// advance root, so construction consumes no randomness and the
// substreams are a pure function of the root seed. Call SetClock
// (optional), then Attach the handles and StartClient each client in id
// order.
func New(k *sim.Kernel, up *netsim.Channel, server ServerAPI, cfg Config, root *rng.Source, arena *cache.Arena) *Population {
	n := cfg.Clients
	p := &Population{
		k: k, cfg: cfg,
		routes:       []route{{up: up, server: server}},
		cell:         make([]int32, n),
		states:       make([]core.ClientState, n),
		caches:       arena.NewSet(n, cfg.CacheCapacity, cfg.Params.N),
		srcs:         make([]rng.Source, n),
		handles:      make([]Handle, n),
		counts:       make([]Counters, n),
		phase:        make([]uint8, n),
		parked:       make([]uint8, n),
		retDisc:      make([]uint8, n),
		connected:    make([]bool, n),
		offlineStorm: make([]bool, n),
		offlineCrash: make([]bool, n),
		queryOpen:    make([]bool, n),
		expired:      make([]bool, n),
		remaining:    make([]float64, n),
		tq:           make([]float64, n),
		pending:      make([]int32, n),
		ctrlTries:    make([]int32, n),
		fetchSeq:     make([]int64, n),
		deadline:     make([]sim.Handle, n),
		clocks:       make([]delivery.Clock, n),
		ge:           make([]*faults.GE, n),
		queryIDs:     make([][]int32, n),
		missIDs:      make([][]int32, n),
		fetchIDs:     make([][]int32, n),
		fetchWant:    make([][]bool, n),
		wantN:        make([]int32, n),
		wakes:        make([]func(), n),
		deadlineFns:  make([]func(), n),
	}
	for i := 0; i < n; i++ {
		p.states[i] = core.ClientState{ID: int32(i), Cache: &p.caches[i]}
		p.srcs[i] = root.Derive(1000 + uint64(i))
		p.ge[i] = faults.NewGE(cfg.DownLoss, &p.srcs[i])
		p.handles[i] = Handle{p: p, i: int32(i)}
		p.connected[i] = true
		p.phase[i] = pcGapStart
		i := int32(i)
		p.wakes[i] = func() { p.step(i) }
		p.deadlineFns[i] = func() { p.deadlineFired(i) }
	}
	return p
}

// Handle returns client i's receiver/host facade for server.Attach and
// churn.Adversary.Attach.
func (p *Population) Handle(i int) *Handle { return &p.handles[i] }

// SetClock installs client i's injected clock-error model (delivery
// layer); the engine draws clocks in id order so assignments stay a pure
// function of the seed. The clock is a lens on perception only: protocol
// state stays server-timestamped.
func (p *Population) SetClock(i int, clk delivery.Clock) { p.clocks[i] = clk }

// Reattach routes client i's uplink traffic to another cell's channel and
// server. Call it before StartClient (initial placement) or from OnWake:
// a connected, running client may have messages in flight on the old
// channels.
func (p *Population) Reattach(i int, up *netsim.Channel, server ServerAPI) {
	if p.connected[i] && p.phase[i] != pcGapStart {
		panic("population: reattach while connected")
	}
	for r := range p.routes {
		if p.routes[r].up == up && p.routes[r].server == server {
			p.cell[i] = int32(r)
			return
		}
	}
	p.routes = append(p.routes, route{up: up, server: server})
	p.cell[i] = int32(len(p.routes) - 1)
}

// StartClient schedules client i's first lifecycle step at the current
// time: one kernel event.
func (p *Population) StartClient(i int) {
	p.k.Schedule(0, p.wakes[i])
}

// hold suspends client i for d simulated seconds, resuming at cont: one
// scheduled event on the cached wake closure.
//
// Hot path: every think/nap timestep of every client; nothing allocates.
//
//mobicache:hot
func (p *Population) hold(i int32, d float64, cont uint8) {
	p.phase[i] = cont
	p.k.Schedule(d, p.wakes[i])
}

// park suspends client i on the given condition, resuming at cont when
// wakeIfParked releases it. Parking schedules nothing.
//
// Hot path: no events, no allocation; the wake comes from wakeIfParked.
//
//mobicache:hot
func (p *Population) park(i int32, sig, cont uint8) {
	p.parked[i] = sig
	p.phase[i] = cont
}

// wakeIfParked releases condition sig for client i: if i is parked on
// it, i resumes in one zero-delay event.
//
// Hot path: at most one freelist-backed kernel event; nothing allocates.
//
//mobicache:hot
func (p *Population) wakeIfParked(i int32, sig uint8) {
	if p.parked[i] == sig {
		p.parked[i] = parkNone
		p.k.Schedule(0, p.wakes[i])
	}
}

// offline reports whether the churn layer currently holds client i down.
func (p *Population) offline(i int32) bool { return p.offlineStorm[i] || p.offlineCrash[i] }

// step dispatches client i's continuation — the body of every wake
// event.
func (p *Population) step(i int32) {
	switch p.phase[i] {
	case pcGapStart:
		p.gapStart(i)
	case pcAfterGap:
		p.afterGap(i)
	case pcIntervalLoop:
		p.intervalLoop(i)
	case pcIntervalBoundary:
		p.intervalBoundary(i)
	case pcDiscWake:
		p.discWake(i)
	case pcValidated:
		p.validatedCheck(i)
	case pcFetchDone:
		p.fetchDoneCheck(i)
	default:
		panic("population: unknown continuation")
	}
}

// gapStart is the top of the run loop: the gap that separates the
// previous query's completion from the next query's arrival (paper §4;
// see Config.DiscPerInterval for the two models). The disconnection coin
// (or the per-interval think draw) comes first, then the chosen
// duration.
func (p *Population) gapStart(i int32) {
	if p.cfg.DiscPerInterval {
		p.remaining[i] = p.srcs[i].Exp(p.cfg.MeanThink)
		p.intervalLoop(i)
		return
	}
	if p.srcs[i].Bool(p.cfg.ProbDisc) {
		p.disconnect(i, pcAfterGap)
		return
	}
	p.hold(i, p.srcs[i].Exp(p.cfg.MeanThink), pcAfterGap)
}

// intervalLoop is the per-interval think model: wait out an exponential
// think time; at every broadcast boundary crossed, the client may power
// down for an exponential disconnection.
func (p *Population) intervalLoop(i int32) {
	if p.remaining[i] <= 0 {
		p.afterGap(i)
		return
	}
	now := p.k.Now()
	L := p.cfg.Params.L
	next := (math.Floor(now/L) + 1) * L
	step := next - now
	if p.remaining[i] < step {
		p.hold(i, p.remaining[i], pcAfterGap)
		return
	}
	p.remaining[i] -= step
	p.hold(i, step, pcIntervalBoundary)
}

// intervalBoundary is the disconnection coin at a crossed broadcast
// boundary.
func (p *Population) intervalBoundary(i int32) {
	if p.srcs[i].Bool(p.cfg.ProbDisc) {
		p.disconnect(i, pcIntervalLoop)
		return
	}
	p.intervalLoop(i)
}

// disconnect powers client i down for an exponential time; ret names
// where the reconnection path hands control back (the think loop or the
// query issue). Any validation exchange in flight is abandoned: the
// client will not hear the answer, and must renegotiate from its
// (unchanged) Tlb after waking.
func (p *Population) disconnect(i int32, ret uint8) {
	p.connected[i] = false
	p.states[i].AbandonPending()
	d := p.srcs[i].Exp(p.cfg.MeanDisc)
	p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.Disconnect,
		Client: p.states[i].ID, B: int64(d * 1e6)})
	cnt := &p.counts[i]
	cnt.Disconnections++
	cnt.SoloDisconnects++
	cnt.DisconnectedFor += d
	p.retDisc[i] = ret
	p.hold(i, d, pcDiscWake)
}

// discWake resumes after the voluntary nap. A storm or crash that caught
// the sleeping host extends the outage past the voluntary draw (only the
// voluntary part is in DisconnectedFor). Then the mobility hook, and the
// reconnection: the fence position is forgotten, because broadcasts
// missed while asleep are the paper's problem (the Tlb window logic
// handles them), not a delivery anomaly.
func (p *Population) discWake(i int32) {
	if p.offline(i) {
		p.park(i, parkOnline, pcDiscWake)
		return
	}
	if p.cfg.OnWake != nil {
		p.cfg.OnWake(int(i))
	}
	p.states[i].ResetSeqFence()
	p.connected[i] = true
	p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.Reconnect,
		Client: p.states[i].ID})
	if p.retDisc[i] == pcIntervalLoop {
		p.intervalLoop(i)
		return
	}
	p.afterGap(i)
}

// afterGap is the run loop between gap and answer: a storm or crash
// holds the host down (no queries while the device is forced off), then
// the query issue (draw count, sample ids, trace), the query opens and
// its deadline is armed, then the validation wait.
func (p *Population) afterGap(i int32) {
	if p.offline(i) {
		p.park(i, parkOnline, pcAfterGap)
		return
	}
	tq := p.k.Now()
	p.tq[i] = tq
	kq := p.cfg.QueryItems.Draw(&p.srcs[i])
	p.queryIDs[i] = p.cfg.QueryAccess.Sample(&p.srcs[i], kq, p.queryIDs[i][:0])
	p.cfg.Tracer.Record(trace.Event{T: tq, Kind: trace.QueryStart,
		Client: p.states[i].ID, B: int64(len(p.queryIDs[i]))})
	p.queryOpen[i] = true
	p.counts[i].QueriesIssued++
	p.expired[i] = false
	if p.cfg.QueryDeadline > 0 {
		p.deadline[i] = p.k.Schedule(p.cfg.QueryDeadline, p.deadlineFns[i])
	}
	p.validatedCheck(i)
}

// deadlineFired is the query-deadline event: mark the query expired and
// release both answer-path waits — at most one of them holds the client,
// so at most one wake event results.
func (p *Population) deadlineFired(i int32) {
	p.expired[i] = true
	p.wakeIfParked(i, parkValidated)
	p.wakeIfParked(i, parkFetch)
}

// validatedCheck is the answer's validation wait: park until a report
// validates the cache past the query instant or the deadline expires,
// the expired verdict taking precedence.
func (p *Population) validatedCheck(i int32) {
	if p.states[i].Tlb <= p.tq[i] && !p.expired[i] {
		p.park(i, parkValidated, pcValidated)
		return
	}
	if p.expired[i] {
		p.giveUp(i, true)
		return
	}
	p.serveQuery(i)
}

// serveQuery is the answer's post-validation body: serve hits from the
// cache, account AoI and consistency, and launch the fetch generation
// for the misses.
func (p *Population) serveQuery(i int32) {
	st := &p.states[i]
	cnt := &p.counts[i]
	now := p.k.Now()
	miss := p.missIDs[i][:0]
	for _, id := range p.queryIDs[i] {
		if e, ok := st.Cache.Lookup(id); ok {
			cnt.ItemsFromCache++
			if p.cfg.ConsistencyHook != nil {
				p.cfg.ConsistencyHook(st.ID, id, e.Version, st.Tlb)
			}
			p.observeAoI(i, now-e.TS, e.Version)
		} else {
			miss = append(miss, id)
		}
	}
	p.missIDs[i] = miss
	cnt.ItemsRequested += int64(len(miss))
	p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.QueryValidated,
		Client: st.ID, A: int64(len(p.queryIDs[i]) - len(miss)),
		B: int64(len(miss))})
	if len(miss) > 0 {
		p.pending[i] = int32(len(miss))
		p.fetchSeq[i]++
		p.fetchIDs[i] = append(p.fetchIDs[i][:0], miss...)
		if p.cfg.Retry.Enabled() {
			want := p.fetchWant[i][:0]
			for range miss {
				want = append(want, true)
			}
			p.fetchWant[i] = want
			p.wantN[i] = int32(len(want))
		}
		if !p.sendFetch(i, 0) && !p.cfg.Retry.Enabled() {
			// The bounded uplink tail-dropped the only fetch request this
			// query will ever send: give up now rather than burn the
			// deadline waiting for nothing.
			p.k.Cancel(p.deadline[i])
			p.abandonFetch(i)
			cnt.QueriesShed++
			p.queryOpen[i] = false
			p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.QueryShed,
				Client: st.ID, B: int64(len(miss))})
			p.gapStart(i)
			return
		}
		p.fetchDoneCheck(i)
		return
	}
	p.finishQuery(i)
}

// fetchDoneCheck is the answer's fetch wait: park while items are
// outstanding and the deadline has not expired; an exhausted deadline
// with items still pending abandons the query.
func (p *Population) fetchDoneCheck(i int32) {
	if p.pending[i] > 0 && !p.expired[i] {
		p.park(i, parkFetch, pcFetchDone)
		return
	}
	if p.pending[i] > 0 {
		p.giveUp(i, false)
		return
	}
	p.finishQuery(i)
}

// finishQuery is the answer's completion tail, then the jump back to the top
// of the run loop.
func (p *Population) finishQuery(i int32) {
	cnt := &p.counts[i]
	p.k.Cancel(p.deadline[i])
	p.queryOpen[i] = false
	cnt.QueriesAnswered++
	resp := p.k.Now() - p.tq[i]
	cnt.RespTime.Observe(resp)
	p.cfg.RespTimeline.Observe(resp)
	if p.cfg.RespHist != nil {
		p.cfg.RespHist.Observe(resp)
	}
	p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.QueryDone,
		Client: p.states[i].ID, B: int64(resp * 1e6)})
	p.gapStart(i)
}

// giveUp abandons the open query after its deadline expired, then
// returns to the top of the run loop. Any half-open validation exchange
// is dropped through the sequence-number guard (validating == true: the
// next broadcast report regenerates it), the fetch generation is
// cancelled so late deliveries only refresh the cache, and the query is
// accounted as timed out.
func (p *Population) giveUp(i int32, validating bool) {
	if validating {
		p.states[i].AbandonPending()
	}
	p.abandonFetch(i)
	cnt := &p.counts[i]
	cnt.QueriesTimedOut++
	p.queryOpen[i] = false
	p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.QueryDeadline,
		Client: p.states[i].ID, B: int64((p.k.Now() - p.tq[i]) * 1e6)})
	p.gapStart(i)
}

// abandonFetch cancels the outstanding fetch generation: pending retry
// timers see a newer sequence and no-op, and late item deliveries fall
// through to a plain cache refresh.
func (p *Population) abandonFetch(i int32) {
	p.fetchSeq[i]++
	p.pending[i] = 0
	clear(p.fetchWant[i])
	p.wantN[i] = 0
}

// sendFetch transmits a data request for the current fetch's missing
// items (all of them on attempt 0, the still-undelivered subset on a
// retry) and, in retry mode, arms the backed-off re-request timer. The
// ids slice is fresh because it must stay intact until the uplink
// completion hands it to Server.OnFetch, which reads it without keeping
// it; a duplicated uplink delivery runs that completion twice. It
// reports whether the (possibly bounded) uplink admitted the request; in
// retry mode the timer is armed either way, so a shed request is simply
// re-issued later. The uplink is the client's cell's at send time; the
// receiving server is its cell's when the transmission completes.
func (p *Population) sendFetch(i int32, attempt int) bool {
	admitted := false
	// A forced-offline host cannot transmit: the attempt is skipped, but
	// in retry mode the backoff timer below still arms.
	if !p.offline(i) {
		ids := make([]int32, 0, len(p.fetchIDs[i]))
		for k, id := range p.fetchIDs[i] {
			if attempt == 0 || p.fetchWant[i][k] {
				ids = append(ids, id)
			}
		}
		// The client's Handle is its fetch requests' transmission observer.
		var tx netsim.TxObserver
		if p.cfg.Tracer.Enabled(trace.UplinkTxStart) {
			tx = &p.handles[i]
		}
		admitted = p.routes[p.cell[i]].up.Send(netsim.ClassData, p.cfg.FetchRequestBits, tx, sim.Func(func() {
			p.routes[p.cell[i]].server.OnFetch(p.states[i].ID, ids, p.k.Now())
		}))
		if admitted {
			p.counts[i].FetchUplinkBits += p.cfg.FetchRequestBits
			p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.FetchSent,
				Client: p.states[i].ID, A: int64(len(ids)), B: int64(attempt)})
		}
	}
	if !p.cfg.Retry.Enabled() {
		return admitted
	}
	seq := p.fetchSeq[i]
	p.k.Schedule(p.cfg.Retry.Delay(attempt, &p.srcs[i]), func() {
		if seq != p.fetchSeq[i] || p.pending[i] == 0 {
			return // the fetch completed, or a newer one replaced it
		}
		p.counts[i].Retries++
		p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.RetryAttempt,
			Client: p.states[i].ID, A: 0, B: int64(attempt + 1)})
		p.sendFetch(i, attempt+1)
	})
	return admitted
}

// scheduleCtrlTimeout arms a give-up timer for the validation exchange
// just sent (a check request or Tlb feedback). Either may die on the
// uplink, at a crashed server, or on the reply's way back. On expiry the
// exchange is abandoned through the sequence-number guard — late replies
// are ignored — and the next broadcast report regenerates it, so no
// resend machinery is needed. No-op when retries are disabled.
func (p *Population) scheduleCtrlTimeout(i int32, kindArg int64) {
	if !p.cfg.Retry.Enabled() {
		return
	}
	st := &p.states[i]
	seq := st.CheckSeq
	p.k.Schedule(p.cfg.Retry.Delay(int(p.ctrlTries[i]), &p.srcs[i]), func() {
		if st.CheckSeq != seq || !p.connected[i] {
			return // superseded, or already abandoned by a disconnect
		}
		if !st.AwaitingValidity && !st.SentTlb {
			return // the exchange completed in time
		}
		p.ctrlTries[i]++
		p.counts[i].Retries++
		p.cfg.Tracer.Record(trace.Event{T: p.k.Now(), Kind: trace.RetryAttempt,
			Client: st.ID, A: kindArg, B: int64(p.ctrlTries[i])})
		st.AbandonPending()
	})
}

// handleOutcome applies a protocol step's verdict: uplink the control
// message (with the feedback-delivery stamp and control timeout), then
// release the validation wait on Ready. A bounded uplink may tail-drop
// the message; only admitted sends count toward the uplink accounting,
// and the control timeout or the query deadline recovers.
func (p *Population) handleOutcome(i int32, out core.Outcome, now sim.Time) {
	cnt := &p.counts[i]
	if out.EpochDegrade {
		cnt.EpochDegrades++
	}
	if out.Send != nil {
		bits := float64(out.Send.SizeBits(p.cfg.Params.Rep))
		msg := out.Send
		kindArg := int64(0)
		if msg.Feedback != nil {
			kindArg = 1
		}
		x := &controlSend{p: p, i: i, msg: msg}
		var tx netsim.TxObserver
		if p.cfg.Tracer.Enabled(trace.UplinkTxStart) {
			tx = x
		}
		st := &p.states[i]
		admitted := p.routes[p.cell[i]].up.Send(netsim.ClassControl, bits, tx, x)
		if admitted {
			cnt.ValidationUplinkBits += bits
			cnt.ValidationUplinkMsgs++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ControlSent,
				Client: st.ID, A: kindArg, B: int64(bits)})
		}
		p.scheduleCtrlTimeout(i, kindArg+1)
	}
	if out.Ready {
		p.ctrlTries[i] = 0
		p.wakeIfParked(i, parkValidated)
	}
}

// controlSend is one control message on client i's uplink: its own
// completion, which hands the message to the client's server, and, while
// UplinkTxStart is traced, its own transmission-start observer. It is
// never recycled: the delivery adversary may fire it twice or never.
type controlSend struct {
	p   *Population
	msg *core.ControlMsg
	i   int32
}

// TxStart traces the transmission's start (UplinkTxStart encoding: 1
// check, 2 feedback).
func (x *controlSend) TxStart(t sim.Time) {
	exch := int64(1)
	if x.msg.Feedback != nil {
		exch = 2
	}
	x.p.cfg.Tracer.Record(trace.Event{T: t, Kind: trace.UplinkTxStart,
		Client: x.p.states[x.i].ID, A: exch})
}

// Fire hands the message to the server of the client's cell at
// completion time, stamping a feedback message's delivery first.
func (x *controlSend) Fire() {
	p, i := x.p, x.i
	if x.msg.Feedback != nil {
		p.states[i].FeedbackDeliveredAt = p.k.Now()
	}
	p.routes[p.cell[i]].server.OnControl(x.msg, p.k.Now())
}

// observeAoI records one answered item's age-of-information sample: the
// gap between the instant the item's value reaches the application
// (validation for cache hits, delivery for fetches) and the server's last
// update of that item. The zero-stale invariant makes the served copy's
// timestamp exactly that last update. Version-0 items were never updated
// and carry no sample. No-op unless the engine wired an AoI histogram.
func (p *Population) observeAoI(i int32, age float64, version int32) {
	if version == 0 || p.cfg.AoIHist == nil {
		return
	}
	cnt := &p.counts[i]
	cnt.AoISamples++
	cnt.AoISum += age
	p.cfg.AoIHist.Observe(age)
	p.cfg.AoITimeline.Observe(age)
}

// fenceAdmit runs the broadcast sequence fence and the stale-by-skew
// guard over a report that survived the loss model. It reports whether
// the handler should process the report. A duplicate was already
// processed; a reorder's window reaches into already-consumed history,
// so applying it could resurrect stale entries — both are dropped. A gap
// (broadcasts missing since the last processed report) or a report
// stamped beyond the skew envelope marks the state so the scheme takes
// its conservative long-disconnection path, and the report is still
// processed.
func (p *Population) fenceAdmit(i int32, r report.Report, now sim.Time) bool {
	st := &p.states[i]
	cnt := &p.counts[i]
	seq := report.SeqOf(r)
	if st.HasSeq {
		switch d := report.SeqDelta(seq, st.LastSeq); {
		case d == 0:
			cnt.IRDuplicates++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.IRDuplicate,
				Client: st.ID, A: int64(seq)})
			return false
		case d < 0:
			cnt.IRReorders++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.IRReorder,
				Client: st.ID, A: int64(d)})
			return false
		case d > 1:
			cnt.IRGaps++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.IRGap,
				Client: st.ID, A: int64(d)})
			st.SeqGap = true
		}
	}
	st.LastSeq = seq
	st.HasSeq = true
	if p.cfg.SkewEpsilon > 0 && r.Time() > p.clocks[i].Read(now)+p.cfg.SkewEpsilon {
		cnt.SkewDegrades++
		st.SeqGap = true
	}
	return true
}

// deliverReport is the protocol step behind Handle.DeliverReport: loss
// model, fence, the paper's client invalidation algorithm, outcome.
func (p *Population) deliverReport(i int32, r report.Report, now sim.Time) {
	if !p.connected[i] || p.offline(i) {
		return
	}
	st := &p.states[i]
	cnt := &p.counts[i]
	if g := p.ge[i]; g != nil {
		switch g.Next() {
		case faults.Lose:
			cnt.ReportsLost++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.FaultLoss,
				Client: st.ID, A: int64(netsim.ClassReport)})
			return
		case faults.Corrupt:
			// Run the real codec over the truncated bitstream so corruption
			// surfaces as a decode error; a nil error means the codec
			// accepted a mangled frame.
			w := bitio.GetWriter()
			err := report.CorruptDecode(r, p.cfg.Params.Rep, w)
			bitio.PutWriter(w)
			if err == nil {
				panic("population: corrupted report decoded cleanly")
			}
			cnt.ReportsCorrupted++
			p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.FaultCorrupt,
				Client: st.ID, A: int64(netsim.ClassReport)})
			return
		}
	}
	if p.cfg.FenceSeq && !p.fenceAdmit(i, r, now) {
		return
	}
	cnt.ReportsHeard++
	salvages, drops := st.Salvages, st.Drops
	out := p.cfg.Side.HandleReport(st, r, now)
	p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ReportDelivered,
		Client: st.ID, A: int64(r.Kind())})
	p.traceCacheVerdict(st, salvages, drops, now)
	p.handleOutcome(i, out, now)
}

// traceCacheVerdict traces what a scheme call did to the whole cache,
// read off the counters Results is built from: CacheSalvage when
// Salvages rose across the call, CacheDrop when Drops did.
func (p *Population) traceCacheVerdict(st *core.ClientState, salvages, drops int64, now sim.Time) {
	if st.Salvages > salvages {
		p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.CacheSalvage, Client: st.ID})
	}
	if st.Drops > drops {
		p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.CacheDrop, Client: st.ID})
	}
}

// deliverValidity hands a validity reply to the scheme; a reply to an
// abandoned exchange (disconnection mid-check) is dropped.
func (p *Population) deliverValidity(i int32, v *report.ValidityReport, now sim.Time) {
	st := &p.states[i]
	if !p.connected[i] || p.offline(i) || !st.AwaitingValidity {
		p.counts[i].StaleValidityDropped++
		p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ValidityDelivered,
			Client: st.ID, A: 1})
		return
	}
	p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ValidityDelivered,
		Client: st.ID})
	salvages, drops := st.Salvages, st.Drops
	out := p.cfg.Side.HandleValidity(st, v, now)
	p.traceCacheVerdict(st, salvages, drops, now)
	p.handleOutcome(i, out, now)
}

// deliverItem caches a fetched item, counts down the want-list in retry
// mode (duplicates from re-requests only refresh the cache), and
// releases the fetch wait when the generation drains.
func (p *Population) deliverItem(i, id, version int32, ts float64, now sim.Time) {
	// A crashed or storm-downed host cannot receive: the item is lost on
	// the air. A voluntary nap keeps receiving — late deliveries refresh
	// the cache.
	if p.offline(i) {
		p.counts[i].OfflineDrops++
		return
	}
	p.cfg.Tracer.Record(trace.Event{T: now, Kind: trace.ItemDelivered,
		Client: p.states[i].ID, A: int64(id)})
	p.states[i].Cache.Put(id, ts, version)
	if p.wantN[i] > 0 {
		// A query's ids are distinct, so id names at most one entry.
		k := slices.Index(p.fetchIDs[i], id)
		if k < 0 || !p.fetchWant[i][k] {
			return
		}
		p.fetchWant[i][k] = false
		p.wantN[i]--
	}
	if p.pending[i] > 0 {
		p.observeAoI(i, now-ts, version)
		p.pending[i]--
		if p.pending[i] == 0 {
			p.wakeIfParked(i, parkFetch)
		}
	}
}

// resumeIfOnline ends a forced-offline episode once the last hold
// clears: the fence position is forgotten (broadcasts missed while down
// are judged by the Tlb window logic, as after a voluntary nap) and the
// parked lifecycle wakes.
func (p *Population) resumeIfOnline(i int32) {
	if p.offline(i) {
		return
	}
	p.states[i].ResetSeqFence()
	p.wakeIfParked(i, parkOnline)
}
