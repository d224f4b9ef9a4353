// Package engine assembles one complete simulation run: the kernel, one
// mobile support station per cell (a downlink, an uplink and a server
// over the shared database, cell 0's carrying the update stream), and
// the population of mobile clients — the system of paper §4, extended to
// §2's several cells. Config mirrors Table 1; Run executes the simulation
// and audits its Results; Manifest records a run for replay.
package engine

import (
	"fmt"
	"math"

	"mobicache/internal/cache"
	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/netsim"
	"mobicache/internal/overload"
	"mobicache/internal/population"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/server"
	"mobicache/internal/sim"
	"mobicache/internal/span"
	"mobicache/internal/stats"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// Config is one simulation setup. The zero value is not runnable; start
// from Default and override.
//
// Each field's json tag is its key in the run manifest, which embeds
// Config; the five tagged "-" are runtime wiring the manifest leaves out.
type Config struct {
	// Scheme names the invalidation method (core registry: "ts",
	// "ts-check", "at", "bs", "afw", "aaw").
	Scheme string `json:"scheme"`
	// Clients is the number of mobile hosts, placed round-robin over the
	// cells (client i starts in cell i mod Cells).
	Clients int `json:"clients"`
	// Cells is the number of cells, each covered by its own mobile
	// support station: a downlink, an uplink and a server broadcasting on
	// the common schedule from the replicated database (paper §2). One
	// cell is the paper's evaluated model. With more, the layers that
	// wire one channel or one server are rejected by Validate.
	Cells int `json:"cells"`
	// MoveProb is the probability that a host wakes from a disconnection
	// in a uniformly chosen different cell — a handoff, made while no
	// fetch or validity exchange is in flight. Ignored with one cell.
	MoveProb float64 `json:"move_prob"`
	// DBSize is the number of database items.
	DBSize int `json:"db_size"`
	// ItemBits is the downlink size of one data item. Table 1 says
	// "8192 bytes", which is inconsistent with the paper's own throughput
	// magnitudes on a 10 kbit/s downlink; we use 8192 bits (see
	// DESIGN.md §3).
	ItemBits float64 `json:"item_bits"`
	// BufferPct is the client cache size as a fraction of DBSize.
	BufferPct float64 `json:"buffer_pct"`
	// Period is the broadcast period L in seconds.
	Period float64 `json:"period"`
	// WindowIntervals is the invalidation window w in periods.
	WindowIntervals int `json:"window_intervals"`
	// DownlinkBps and UplinkBps are channel bandwidths in bits/second.
	DownlinkBps float64 `json:"downlink_bps"`
	UplinkBps   float64 `json:"uplink_bps"`
	// ControlMsgBits is the fixed size of a data-fetch request (Table 1's
	// 512-byte control message).
	ControlMsgBits float64 `json:"control_msg_bits"`
	// MeanThink is the expected think time between queries.
	MeanThink float64 `json:"mean_think"`
	// MeanUpdate is the expected update-transaction interarrival time.
	MeanUpdate float64 `json:"mean_update"`
	// MeanDisc and ProbDisc model disconnection: each inter-query gap is
	// a disconnection of mean MeanDisc with probability ProbDisc,
	// otherwise a think (see population.Config.DiscPerInterval for the
	// alternative per-boundary model).
	MeanDisc float64 `json:"mean_disc"`
	ProbDisc float64 `json:"prob_disc"`
	// DiscPerInterval switches to the per-broadcast-boundary
	// disconnection model (ablation).
	DiscPerInterval bool `json:"disc_per_interval"`
	// SimTime is the simulated horizon in seconds.
	SimTime float64 `json:"sim_time"`
	// Warmup discards all statistics gathered before this simulated time,
	// so measurements cover only the steady state (0 = measure the whole
	// run, like the paper).
	Warmup float64 `json:"warmup"`
	// Seed feeds every random stream; identical configs with identical
	// seeds produce identical results.
	Seed uint64 `json:"seed"`
	// Workload supplies access patterns and operation sizes; nil Query
	// means Uniform(DBSize).
	Workload workload.Workload `json:"-"`
	// TSBits and HeaderBits tune the message size model.
	TSBits     int `json:"ts_bits"`
	HeaderBits int `json:"header_bits"`
	// ConsistencyCheck enables the stale-read detector: every cache-served
	// item is compared against the version that was current at the
	// client's validation timestamp. Costs memory proportional to the
	// update count.
	ConsistencyCheck bool `json:"consistency_check"`
	// Trace, when non-nil, records protocol events from the server and
	// every client into the given ring buffer.
	Trace *trace.Tracer `json:"-"`
	// Metrics, when non-nil, receives a time series sampled once per
	// broadcast period: throughput, hit ratio, report kind and size,
	// adjusted window, channel utilization, retries and fault/recovery
	// activity (see DESIGN.md §9). Sampling rides the engine's existing
	// per-period sampler, so enabling it schedules no additional events
	// and consumes no randomness; a nil registry leaves the run
	// bit-identical to an uninstrumented build.
	Metrics *metrics.Registry `json:"-"`
	// Faults configures the deterministic fault-injection layer: bursty
	// (Gilbert–Elliott) downlink and uplink loss/corruption, server
	// crash/restart, and the client uplink timeout/backoff policy. The
	// zero value injects nothing, schedules nothing, and consumes no
	// randomness, keeping seeded results bit-identical to fault-free
	// builds.
	Faults faults.Config `json:"faults"`
	// Overload configures the graceful-degradation layer: bounded channel
	// queues, client query deadlines, and server admission control with
	// request coalescing. The zero value disables everything — no events,
	// no randomness, results bit-identical to builds without the layer
	// (pinned by TestOverloadFreeResultsUnchanged). Bounded queues or
	// admission control require a recovery path (Overload.QueryDeadline or
	// Faults.Retry); Validate enforces it.
	Overload overload.Config `json:"overload"`
	// Delivery configures the adversarial-delivery layer: per-link delay
	// jitter, bounded reordering, duplication, asymmetric partitions, and
	// per-client clock skew/drift. Enabling it arms the clients' broadcast
	// sequence fence (gap/duplicate/reorder detection over the reports'
	// frame-header sequence numbers; DESIGN.md §13). The zero value
	// disables everything — no events, no randomness, results
	// bit-identical to builds without the layer (pinned by
	// TestDeliveryFreeResultsUnchanged). Any enabled adversary requires a
	// recovery path (Faults.Retry or Overload.QueryDeadline); Validate
	// enforces it.
	Delivery delivery.Config `json:"delivery"`
	// Churn configures the population adversary: correlated mass-
	// disconnect storms with paced resync, and client crash/restart with
	// a persisted-snapshot trust contract (warm restores come from a
	// bit-packed, checksummed, epoch-tagged checkpoint; a corrupt or
	// stale one is verifiably rejected back to a cold start). The zero
	// value disables everything — no events, no randomness, results
	// bit-identical to builds without the layer (pinned by
	// TestChurnFreeResultsUnchanged). Any enabled churn requires a
	// recovery path (Faults.Retry or Overload.QueryDeadline); Validate
	// enforces it, and bounds Churn.SnapshotTTL by the invalidation
	// window w·L.
	Churn churn.Config `json:"churn"`
	// Aggregate has no effect: every run uses the struct-of-arrays client
	// population (internal/population). The field remains only because
	// existing callers still set it.
	Aggregate bool `json:"-"`
	// Spans arms the causal-span and age-of-information observability
	// layer: a span.Assembler rides the trace stream as a sink (created
	// internally, chained behind any user-supplied sink), folding each
	// query's events into one terminal span with a phase-decomposed
	// latency, and every answered item contributes an AoI sample
	// (answer instant minus the item's last server update). Assembly is
	// a pure fold — no kernel events, no randomness — so nil (disabled)
	// leaves results bit-identical to builds without the layer (pinned
	// by TestSpanFreeResultsUnchanged), and an enabled run's Results
	// equal its disabled twin's apart from the span and AoI fields.
	Spans *SpanOptions `json:"-"`
}

// SpanOptions configures the span/AoI layer (Config.Spans).
type SpanOptions struct {
	// Keep retains every assembled span and its phase segments for
	// Chrome trace-event export (Results.Spans.WriteTrace, cmd/mobisim
	// -spans); off, only the summary digest is kept.
	Keep bool
}

// Default returns Table 1's settings with the UNIFORM workload: one cell
// of 100 clients, 10000-item database, 2% buffers, L=20 s, w=10, symmetric
// 10 kbit/s channels, 100 s think and update interarrival, disconnection
// probability 0.1 with 4000 s mean, 100000 s horizon.
func Default() Config {
	return Config{
		Scheme:           "aaw",
		Clients:          100,
		Cells:            1,
		DBSize:           10000,
		ItemBits:         8192,
		BufferPct:        0.02,
		Period:           20,
		WindowIntervals:  10,
		DownlinkBps:      10000,
		UplinkBps:        10000,
		ControlMsgBits:   4096,
		MeanThink:        100,
		MeanUpdate:       100,
		MeanDisc:         4000,
		ProbDisc:         0.1,
		SimTime:          100000,
		Seed:             1,
		Workload:         workload.Uniform(10000),
		TSBits:           64,
		HeaderBits:       32,
		ConsistencyCheck: false,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("engine: need at least one client")
	case c.Cells < 1:
		return fmt.Errorf("engine: need at least one cell")
	case c.Cells >= moveStream:
		// Cell i's server draws from stream i, below the mobility stream.
		return fmt.Errorf("engine: %d cells, want fewer than %d", c.Cells, moveStream)
	case c.MoveProb < 0 || c.MoveProb > 1:
		return fmt.Errorf("engine: invalid move probability %v", c.MoveProb)
	case c.DBSize < 2:
		return fmt.Errorf("engine: database too small (%d)", c.DBSize)
	case c.Period <= 0 || c.WindowIntervals <= 0:
		return fmt.Errorf("engine: invalid broadcast schedule")
	case c.DownlinkBps <= 0 || c.UplinkBps <= 0:
		return fmt.Errorf("engine: invalid bandwidth")
	case c.SimTime <= c.Period:
		return fmt.Errorf("engine: horizon shorter than one broadcast period")
	case c.Warmup < 0 || c.Warmup >= c.SimTime:
		return fmt.Errorf("engine: warmup %v outside [0, SimTime)", c.Warmup)
	case c.MeanThink <= 0 || c.MeanUpdate <= 0 || c.MeanDisc <= 0:
		return fmt.Errorf("engine: invalid time constants")
	case c.ProbDisc < 0 || c.ProbDisc > 1:
		return fmt.Errorf("engine: invalid disconnection probability")
	case c.Workload.Query == nil || c.Workload.Update == nil:
		return fmt.Errorf("engine: workload not set")
	case c.Workload.Query.Items() > c.DBSize || c.Workload.Update.Items() > c.DBSize:
		return fmt.Errorf("engine: workload draws from %d query and %d update items, more than the %d in the database",
			c.Workload.Query.Items(), c.Workload.Update.Items(), c.DBSize)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Overload.Validate(c.Faults.Retry.Enabled()); err != nil {
		return err
	}
	if err := c.Delivery.Validate(c.Faults.Retry.Enabled() || c.Overload.QueryDeadline > 0, c.SimTime); err != nil {
		return err
	}
	if err := c.Churn.Validate(c.Faults.Retry.Enabled() || c.Overload.QueryDeadline > 0,
		float64(c.WindowIntervals)*c.Period); err != nil {
		return err
	}
	if c.Cells > 1 {
		// Each of these wires one channel or one server, and the crash,
		// uplink-loss, delivery and churn streams (2-5) are cells 2-5's
		// server streams; a per-cell design is future work. The
		// client-side settings work in every cell as they are.
		for _, l := range []struct {
			on   bool
			name string
		}{
			{c.Faults.UpLoss.Enabled(), "Faults.UpLoss"},
			{c.Faults.CrashMTBF > 0, "Faults.CrashMTBF"},
			{c.Overload.UpQueueCap > 0 || c.Overload.DownQueueCap > 0, "Overload queue caps"},
			{c.Overload.ServerPendingCap > 0 || c.Overload.Coalesce, "Overload admission control"},
			{c.Delivery.Enabled(), "Delivery"},
			{c.Churn.Enabled(), "Churn"},
			{c.Metrics != nil, "Metrics"},
		} {
			if l.on {
				return fmt.Errorf("engine: %s needs a single cell, have %d", l.name, c.Cells)
			}
		}
	}
	if _, err := core.Lookup(c.Scheme); err != nil {
		return err
	}
	return nil
}

// CacheCapacity reports the per-client buffer size in items (at least 1).
func (c Config) CacheCapacity() int {
	n := int(math.Round(c.BufferPct * float64(c.DBSize)))
	if n < 1 {
		n = 1
	}
	return n
}

// Violation is one stale cache read caught by the consistency checker.
type Violation struct {
	Client  int32
	Item    int32
	Served  int32
	Correct int32
	Tlb     float64
}

func (v Violation) String() string {
	return fmt.Sprintf("client %d served item %d version %d, but version at its Tlb %.3f was %d",
		v.Client, v.Item, v.Served, v.Tlb, v.Correct)
}

// CellStats summarizes one cell of a multi-cell run.
type CellStats struct {
	// QueriesAnswered attributes each client's answered queries to the
	// cell it resides in at the horizon.
	QueriesAnswered int64
	DownUtilization float64
	ReportsSent     map[string]int64
}

// Results aggregates one run. Channel and server counters are summed over
// the cells, and the utilizations are the mean over the cells.
type Results struct {
	// Config is the configuration that ran. It is left out of the JSON
	// encoding, and so out of Digest: the manifest records it instead.
	Config Config `json:"-"`

	// Headline metrics (the paper's two evaluation axes).
	QueriesAnswered      int64
	UplinkValidationBits float64
	UplinkBitsPerQuery   float64
	ValidationUplinkMsgs int64
	// ThroughputCI95 is the batch-means 95% half-width on the
	// per-interval completion rate, scaled to the whole measured span —
	// a within-run error bar on QueriesAnswered.
	ThroughputCI95 float64

	// Cache behaviour.
	CacheHits, CacheMisses int64
	HitRatio               float64
	Drops, Salvages        int64

	// Report traffic.
	ReportsSent map[string]int64
	ReportBits  map[string]float64
	IROverruns  int64

	// Channel accounting (bits accepted per class).
	DownReportBits, DownControlBits, DownDataBits float64
	UpControlBits, UpDataBits                     float64
	DownUtilization, UpUtilization                float64

	// Fault injection and recovery.
	ReportsCorrupted    int64   // reports destroyed by corruption (decode errors)
	UplinkMsgsLost      int64   // uplink messages destroyed by the channel model
	UplinkMsgsCorrupted int64   // uplink messages delivered corrupted and discarded
	Retries             int64   // uplink exchange timeouts (all kinds)
	RetriesPerQuery     float64 // Retries / QueriesAnswered
	EpochDegrades       int64   // recovery-marker-forced degradations
	ServerCrashes       int64
	ServerDowntime      float64 // total seconds the server was dead
	// MeanRecoveryLatency averages, per crash, the client-visible blackout:
	// crash instant to first post-restart report broadcast.
	MeanRecoveryLatency float64

	// Overload and degradation. The accounting identity
	//   QueriesIssued == QueriesAnswered + QueriesTimedOut + QueriesShed
	//                    + QueriesInFlight
	// holds exactly: every issued query is answered, abandoned at its
	// deadline, shed outright (its only fetch tail-dropped with no retry
	// policy), or still open at the horizon. The peak-queue fields report
	// the bounded-population high-water marks and are meaningful only when
	// the corresponding queue cap is set (always 0 otherwise).
	QueriesIssued    int64
	QueriesTimedOut  int64
	QueriesShed      int64
	QueriesInFlight  int64
	BusyHeard        int64 // admission-control rejections clients heard
	UpShedMsgs       int64 // uplink messages tail-dropped at admission
	DownShedMsgs     int64 // downlink messages tail-dropped at admission
	UpPeakQueue      int   // bounded uplink waiting-population high-water mark
	DownPeakQueue    int   // bounded downlink waiting-population high-water mark
	CoalescedFetches int64 // fetches merged into one downlink transmission
	BusyReplies      int64 // fetches the server rejected as busy
	RepliesShed      int64 // server replies tail-dropped by a bounded downlink

	// Adversarial delivery and the sequence fence. The first four are
	// client-side fence verdicts; the rest count what the delivery
	// adversary injected. All stay 0 with the layer disabled.
	IRGaps           int64 // sequence gaps detected (each forced a conservative degrade)
	IRDuplicates     int64 // duplicate reports dropped idempotently
	IRReorders       int64 // out-of-order reports dropped
	SkewDegrades     int64 // stale-by-skew degrades (report time beyond the ε envelope)
	Partitions       int64 // partition events the adversary started
	PartitionDrops   int64 // messages destroyed by an active partition
	DeliveryDelayed  int64 // deliveries the adversary postponed (jitter/reorder)
	DeliveryReorders int64 // deliveries pushed past the reorder window
	DeliveryDups     int64 // duplicate deliveries injected

	// Population churn (all stay 0 with the layer disabled). Two
	// accounting identities close over these:
	//   Disconnections == StormDisconnects + SoloDisconnects
	//   ClientCrashes  == RestartsWarm + RestartsCold + CrashedAtEnd
	// with Salvages >= RestartsWarm, Drops >= RestartsCold, and
	// SnapshotRejects <= RestartsCold (every rejection forced one of the
	// cold restarts).
	Storms           int64 // mass-disconnect storms started
	StormDisconnects int64 // clients forced down by storms
	SoloDisconnects  int64 // voluntary (paper-model) disconnections
	ClientCrashes    int64 // client process crashes
	RestartsWarm     int64 // restarts that salvaged a persisted snapshot
	RestartsCold     int64 // restarts that started from an empty cache
	SnapshotRejects  int64 // snapshots verifiably rejected (corrupt/stale/inconsistent)
	CrashedAtEnd     int64 // clients still crashed at the horizon
	PacedResumes     int64 // post-storm reconnections through the resync backoff
	OfflineDrops     int64 // deliveries lost at a forced-offline host

	// Client behaviour.
	ReportsLost               int64
	MeanResponse, MaxResponse float64
	// Response-time percentiles from a shared histogram (approximate;
	// responses beyond the histogram range clamp to its upper bound).
	RespP50, RespP95, RespP99 float64
	Disconnections            int64
	MeanDisconnectedFor       float64
	ItemsFromCache            int64
	ItemsFetched              int64
	StaleValidityDropped      int64

	// MeasuredTime is the span statistics cover (SimTime - Warmup).
	MeasuredTime float64

	// Multi-cell (zero and nil with one cell, so single-cell digests are
	// unchanged). Handoffs counts the cell changes at wake-up; PerCell
	// holds one entry per cell.
	Handoffs int64       `json:",omitempty"`
	PerCell  []CellStats `json:",omitempty"`

	// Span/AoI observability (nil and zero unless Config.Spans is set).
	// Spans is the assembled span digest: terminal-outcome counts
	// satisfying the accounting identity, per-phase latency percentiles,
	// and (Keep mode) the raw spans for export. The AoI fields summarize
	// answer age-of-information: for every answered item, the answer
	// instant minus the server's last update of that item (version-0
	// items, never updated, carry no sample).
	Spans                  *span.Summary
	AoISamples             int64
	AoIMean                float64
	AoIP50, AoIP95, AoIP99 float64

	// Engine health.
	Events uint64
	// PeakEventQueue is the calendar-queue high-water mark — the kernel's
	// self-profile of how bursty the event population got.
	PeakEventQueue        int
	ConsistencyViolations int64
	FirstViolation        *Violation
}

// moveStream is the root RNG stream of host mobility. Cell i's server
// owns stream i, so the cell count stays below it.
const moveStream = 999

// cell is one mobile support station: its own downlink and uplink, and a
// server broadcasting from the shared database.
type cell struct {
	down, up *netsim.Channel
	srv      *server.Server
}

// Run executes the simulation described by c and audits the results. A
// run that fails its audit returns its Results together with the error,
// so the caller can still show what went wrong; a config error returns
// nil Results. It is a run on a Scratch of its own.
func Run(c Config) (*Results, error) { return new(Scratch).Run(c) }

// Scratch is the storage a run leaves behind for the next one: the
// clients' cache arenas and the database's arrays. A run on a scratch
// reinitialises that storage in place, exactly as fresh allocation would
// leave it, so cells run one after another on one scratch allocate it
// once. A scratch runs one run at a time, and nothing a run returns
// aliases it (DESIGN.md §7). The zero value is ready to use.
type Scratch struct {
	caches cache.Arena
	db     db.Database
}

// Run is the package-level Run on s's storage.
func (s *Scratch) Run(c Config) (*Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	scheme, err := core.Lookup(c.Scheme)
	if err != nil {
		return nil, err
	}

	params := core.Params{
		N: c.DBSize,
		L: c.Period,
		W: c.WindowIntervals,
		Rep: report.Params{
			N:          c.DBSize,
			TSBits:     c.TSBits,
			HeaderBits: c.HeaderBits,
		},
	}

	// Span/AoI observability: the assembler rides the trace stream as a
	// sink, so it must be wired before the server and clients capture
	// c.Trace. With no user-supplied tracer, a minimal one (capacity 1,
	// restricted to the kinds the fold consumes) is created as a pure
	// conduit; a user-supplied tracer must already record every kind the
	// assembler needs, or the phase accounting would silently miss
	// transitions.
	var asm *span.Assembler
	var aoiHist *stats.Histogram
	if c.Spans != nil {
		asm = span.New(span.Options{
			Clients: c.Clients,
			Horizon: c.SimTime,
			Warmup:  c.Warmup,
			Keep:    c.Spans.Keep,
		})
		if c.Trace == nil {
			c.Trace = trace.New(1).Only(span.EventKinds()...)
		} else {
			for _, kind := range span.EventKinds() {
				if !c.Trace.Enabled(kind) {
					return nil, fmt.Errorf("engine: Spans requires trace kind %q enabled on the supplied tracer", kind)
				}
			}
		}
		c.Trace.AddSink(asm)
		asm.RegisterMetrics(c.Metrics, 0, 4*c.MeanThink+40*c.Period)
		aoiHist = stats.NewHistogram(0, c.SimTime, 2048)
	}

	k := sim.New()
	root := rng.New(c.Seed)
	d := &s.db
	d.Reset(c.DBSize, c.ConsistencyCheck)

	var crashRNG *rng.Source
	if c.Faults.CrashMTBF > 0 {
		crashRNG = root.Split(2)
	}
	// One station per cell, each broadcasting from the shared database;
	// cell i's server draws from root.Split(i). The single-cell layers
	// below wire cell 0 (Validate rejects them with more cells).
	cells := make([]cell, c.Cells)
	for i := range cells {
		ce := &cells[i]
		ce.down = netsim.NewChannel(k, "downlink", c.DownlinkBps)
		ce.up = netsim.NewChannel(k, "uplink", c.UplinkBps)
		ce.srv = server.New(k, d, ce.down, server.Config{
			Scheme:                 scheme.NewServer(params),
			Params:                 params,
			ItemBits:               c.ItemBits,
			UpdateAccess:           c.Workload.Update,
			UpdateItems:            c.Workload.UpdateItems,
			MeanUpdateInterarrival: c.MeanUpdate,
			Tracer:                 c.Trace,
			CrashMTBF:              c.Faults.CrashMTBF,
			CrashMTTR:              c.Faults.CrashMTTR,
			CrashRNG:               crashRNG,
			PendingCap:             c.Overload.ServerPendingCap,
			Coalesce:               c.Overload.Coalesce,
		}, root.Split(uint64(i)))
	}
	down, up, srv := cells[0].down, cells[0].up, cells[0].srv

	// Bounded channel queues: deterministic tail-drop at admission,
	// surfaced as rejections to senders and traced as ChannelShed events.
	// With the caps at zero nothing below runs and the channels behave
	// exactly as before.
	if c.Overload.UpQueueCap > 0 {
		up.SetQueueCap(c.Overload.UpQueueCap)
		up.SetShedHook(func(class netsim.Class) {
			c.Trace.Record(trace.Event{T: k.Now(), Kind: trace.ChannelShed,
				Client: -1, A: int64(class), B: 1})
		})
	}
	if c.Overload.DownQueueCap > 0 {
		down.SetQueueCap(c.Overload.DownQueueCap)
		down.SetShedHook(func(class netsim.Class) {
			c.Trace.Record(trace.Event{T: k.Now(), Kind: trace.ChannelShed,
				Client: -1, A: int64(class), B: 0})
		})
	}

	res := &Results{
		Config:      c,
		ReportsSent: make(map[string]int64),
		ReportBits:  make(map[string]float64),
	}
	// The shared uplink runs one Gilbert–Elliott chain, stepped per
	// completed transmission. A corrupted uplink message reaches a server
	// that cannot parse it; both verdicts end as a discard, distinguished
	// in the counters and trace.
	if upGE := faults.NewGE(c.Faults.UpLoss, root.Split(3)); upGE != nil {
		up.SetFaults(upGE, func(class netsim.Class, v faults.Verdict) {
			kind := trace.FaultLoss
			if v == faults.Corrupt {
				kind = trace.FaultCorrupt
				res.UplinkMsgsCorrupted++
			} else {
				res.UplinkMsgsLost++
			}
			c.Trace.Record(trace.Event{T: k.Now(), Kind: kind, Client: -1, A: int64(class)})
		})
	}
	// The adversarial-delivery layer: link adversaries on both channels,
	// the partition process, and the per-client clock-error draws. nil
	// (the zero config) wires nothing, schedules nothing, and consumes no
	// randomness.
	adv := delivery.New(k, c.Delivery, root.Split(4), c.Trace)
	if adv != nil {
		down.SetDelivery(adv.Down)
		up.SetDelivery(adv.Up)
		adv.Start()
	}
	var hook func(clientID, itemID, version int32, tlb float64)
	if c.ConsistencyCheck {
		hook = func(clientID, itemID, version int32, tlb float64) {
			correct := d.VersionAt(itemID, tlb)
			if version < correct {
				res.ConsistencyViolations++
				if res.FirstViolation == nil {
					res.FirstViolation = &Violation{
						Client: clientID, Item: itemID,
						Served: version, Correct: correct, Tlb: tlb,
					}
				}
			}
		}
	}

	respHist := stats.NewHistogram(0, 4*c.MeanThink+40*c.Period, 512)

	// tot is the population fold the sample tick refreshes; the timeline's
	// client columns poll it.
	var tot population.Totals
	respTimeline, aoiTimeline := wireMetrics(c, k, srv, down, up, &tot)

	// Mobility: a waking host moves to a uniformly chosen other cell with
	// probability MoveProb, drawn from its own stream (no draw with one
	// cell). where maps client id to its current cell.
	moveRNG := root.Split(moveStream)
	where := make([]int, c.Clients)
	var pop *population.Population
	pop = population.New(k, up, srv, population.Config{
		Clients:          c.Clients,
		Side:             scheme.NewClient(params),
		Params:           params,
		CacheCapacity:    c.CacheCapacity(),
		QueryAccess:      c.Workload.Query,
		QueryItems:       c.Workload.QueryItems,
		MeanThink:        c.MeanThink,
		ProbDisc:         c.ProbDisc,
		MeanDisc:         c.MeanDisc,
		DiscPerInterval:  c.DiscPerInterval,
		FetchRequestBits: c.ControlMsgBits,
		ConsistencyHook:  hook,
		RespHist:         respHist,
		AoIHist:          aoiHist,
		RespTimeline:     respTimeline,
		AoITimeline:      aoiTimeline,
		Tracer:           c.Trace,
		DownLoss:         c.Faults.DownLoss,
		Retry:            c.Faults.Retry,
		QueryDeadline:    c.Overload.QueryDeadline,
		// The sequence fence is armed for every client whenever the
		// delivery layer is enabled.
		FenceSeq:    adv != nil,
		SkewEpsilon: c.Delivery.Epsilon,
		OnWake: func(i int) {
			if c.Cells < 2 || !moveRNG.Bool(c.MoveProb) {
				return
			}
			old := where[i]
			next := moveRNG.Intn(c.Cells - 1)
			if next >= old {
				next++
			}
			cells[old].srv.Detach(int32(i))
			cells[next].srv.Attach(pop.Handle(i))
			pop.Reattach(i, cells[next].up, cells[next].srv)
			where[i] = next
			res.Handoffs++
		},
	}, root, &s.caches)
	for i := 0; i < c.Clients; i++ {
		// Clock errors are drawn in client index order, interleaved with
		// the attach and the start event, so assignments and event
		// sequence numbers are a pure function of the seed.
		if adv != nil {
			clk := adv.ClockFor()
			pop.SetClock(i, clk)
			if c.Delivery.SkewMax > 0 || c.Delivery.DriftMax > 0 {
				c.Trace.Record(trace.Event{T: 0, Kind: trace.ClockSkewApplied,
					Client: int32(i), A: int64(clk.Offset * 1e6), B: int64(clk.Drift * 1e9)})
			}
		}
		where[i] = i % c.Cells
		home := &cells[where[i]]
		pop.Reattach(i, home.up, home.srv)
		home.srv.Attach(pop.Handle(i))
		pop.StartClient(i)
	}
	// The population adversary attaches to the built client population;
	// nil (the zero config) wires nothing, schedules nothing, and
	// consumes no randomness.
	churnAdv := churn.New(k, c.Churn, root.Split(5), c.Trace)
	if churnAdv != nil {
		hosts := make([]churn.Host, c.Clients)
		for i := range hosts {
			hosts[i] = pop.Handle(i)
		}
		churnAdv.Attach(c.CacheCapacity(), hosts...)
		churnAdv.Start()
	}
	// Cell 0's station applies the update stream to the shared database
	// (and runs the crash process); every station broadcasts on the same
	// schedule.
	srv.Start()
	for _, ce := range cells[1:] {
		ce.srv.StartBroadcast()
	}
	// Batch-means sampler: per-interval query completions, batched into
	// 50-interval groups for an (approximately independent) CI. The
	// metrics registry samples on the same tick, so observability adds
	// zero events to the calendar.
	batch := stats.NewBatchMeans(50)
	var prevCompleted int64
	var sampleTick func()
	sampleTick = func() {
		tot = pop.Totals(c.Metrics != nil)
		batch.Observe(float64(tot.QueriesAnswered - prevCompleted))
		prevCompleted = tot.QueriesAnswered
		c.Metrics.Sample(float64(k.Now()))
		if k.Now()+c.Period <= c.SimTime {
			k.Schedule(c.Period, sampleTick)
		}
	}
	k.At(c.Period, sampleTick)

	if c.Warmup > 0 {
		k.At(c.Warmup, func() {
			pop.ResetStats()
			for _, ce := range cells {
				ce.srv.ResetStats()
				ce.down.ResetStats()
				ce.up.ResetStats()
			}
			adv.ResetStats()
			churnAdv.ResetStats()
			respHist.Reset()
			if aoiHist != nil {
				aoiHist.Reset()
			}
			res.UplinkMsgsLost = 0
			res.UplinkMsgsCorrupted = 0
			res.Handoffs = 0
			// Restart the batch-means sampler from the warmed-up state.
			prevCompleted = 0
			batch = stats.NewBatchMeans(50)
		})
	}

	k.Run(c.SimTime)
	measured := c.SimTime - c.Warmup
	res.MeasuredTime = measured

	// Collect, walking clients in index order so every float64 sum
	// happens in one fixed order.
	var resp stats.Tally
	var aoiSum float64
	if c.Cells > 1 {
		res.PerCell = make([]CellStats, c.Cells)
	}
	for i := 0; i < c.Clients; i++ {
		cnt, st := pop.Count(i), pop.State(i)
		if res.PerCell != nil {
			res.PerCell[where[i]].QueriesAnswered += cnt.QueriesAnswered
		}
		res.AoISamples += cnt.AoISamples
		aoiSum += cnt.AoISum
		res.QueriesAnswered += cnt.QueriesAnswered
		res.QueriesIssued += cnt.QueriesIssued
		res.QueriesTimedOut += cnt.QueriesTimedOut
		res.QueriesShed += cnt.QueriesShed
		res.QueriesInFlight += pop.InFlight(i)
		res.BusyHeard += cnt.BusyHeard
		res.UplinkValidationBits += cnt.ValidationUplinkBits
		res.ValidationUplinkMsgs += cnt.ValidationUplinkMsgs
		res.CacheHits += st.Cache.Hits()
		res.CacheMisses += st.Cache.Misses()
		res.Drops += st.Drops
		res.Salvages += st.Salvages
		res.Disconnections += cnt.Disconnections
		res.SoloDisconnects += cnt.SoloDisconnects
		res.StormDisconnects += cnt.StormDisconnects
		res.ClientCrashes += cnt.Crashes
		res.RestartsWarm += cnt.RestartsWarm
		res.RestartsCold += cnt.RestartsCold
		res.SnapshotRejects += cnt.SnapshotRejects
		res.OfflineDrops += cnt.OfflineDrops
		if pop.CrashedDown(i) {
			res.CrashedAtEnd++
		}
		res.MeanDisconnectedFor += cnt.DisconnectedFor
		res.ItemsFromCache += cnt.ItemsFromCache
		res.ItemsFetched += cnt.ItemsRequested
		res.ReportsLost += cnt.ReportsLost
		res.ReportsCorrupted += cnt.ReportsCorrupted
		res.Retries += cnt.Retries
		res.EpochDegrades += cnt.EpochDegrades
		res.IRGaps += cnt.IRGaps
		res.IRDuplicates += cnt.IRDuplicates
		res.IRReorders += cnt.IRReorders
		res.SkewDegrades += cnt.SkewDegrades
		res.StaleValidityDropped += cnt.StaleValidityDropped
		if cnt.RespTime.N() > 0 {
			resp.Observe(cnt.RespTime.Mean())
			if cnt.RespTime.Max() > res.MaxResponse {
				res.MaxResponse = cnt.RespTime.Max()
			}
		}
	}
	// Storm-forced disconnections have no voluntary duration draw, so the
	// mean covers only the paper-model naps (with churn disabled the two
	// counters are equal and this matches the historical definition).
	if res.SoloDisconnects > 0 {
		res.MeanDisconnectedFor /= float64(res.SoloDisconnects)
	}
	res.MeanResponse = resp.Mean()
	if res.QueriesAnswered > 0 {
		res.UplinkBitsPerQuery = res.UplinkValidationBits / float64(res.QueriesAnswered)
	}
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		res.HitRatio = float64(res.CacheHits) / float64(total)
	}
	for i := range cells {
		ce := &cells[i]
		for kind, n := range ce.srv.ReportsSent {
			res.ReportsSent[kind.String()] += n
		}
		for kind, bits := range ce.srv.ReportBits {
			res.ReportBits[kind.String()] += bits
		}
		res.IROverruns += ce.srv.IROverruns
		res.CoalescedFetches += ce.srv.CoalescedFetches
		res.BusyReplies += ce.srv.BusyReplies
		res.RepliesShed += ce.srv.RepliesShed
		res.ServerCrashes += ce.srv.Crashes
		res.ServerDowntime += ce.srv.Downtime
		res.UpShedMsgs += ce.up.TotalShed()
		res.DownShedMsgs += ce.down.TotalShed()
		res.UpPeakQueue = max(res.UpPeakQueue, ce.up.MaxQueuedLow())
		res.DownPeakQueue = max(res.DownPeakQueue, ce.down.MaxQueuedLow())
		res.DownReportBits += ce.down.Bits(netsim.ClassReport)
		res.DownControlBits += ce.down.Bits(netsim.ClassControl)
		res.DownDataBits += ce.down.Bits(netsim.ClassData)
		res.UpControlBits += ce.up.Bits(netsim.ClassControl)
		res.UpDataBits += ce.up.Bits(netsim.ClassData)
		res.DownUtilization += ce.down.Utilization(measured)
		res.UpUtilization += ce.up.Utilization(measured)
		if res.PerCell != nil {
			cs := &res.PerCell[i]
			cs.DownUtilization = ce.down.Utilization(measured)
			cs.ReportsSent = make(map[string]int64)
			for kind, n := range ce.srv.ReportsSent {
				cs.ReportsSent[kind.String()] = n
			}
		}
	}
	res.DownUtilization /= float64(c.Cells)
	res.UpUtilization /= float64(c.Cells)
	if adv != nil {
		res.Partitions = adv.Partitions
		res.PartitionDrops = adv.PartitionDrops()
		res.DeliveryDelayed = adv.Delayed()
		res.DeliveryReorders = adv.Reordered()
		res.DeliveryDups = adv.Dups()
	}
	if churnAdv != nil {
		res.Storms = churnAdv.Storms
		res.PacedResumes = churnAdv.PacedResumes
	}
	// Crashes run in cell 0 only (Validate).
	if srv.RecoveryLatency.N() > 0 {
		res.MeanRecoveryLatency = srv.RecoveryLatency.Mean()
	}
	if res.QueriesAnswered > 0 {
		res.RetriesPerQuery = float64(res.Retries) / float64(res.QueriesAnswered)
	}
	if batch.Batches() >= 2 {
		intervals := measured / c.Period
		res.ThroughputCI95 = batch.CI95() * intervals
	}
	res.RespP50 = respHist.Quantile(0.50)
	res.RespP95 = respHist.Quantile(0.95)
	res.RespP99 = respHist.Quantile(0.99)
	if asm != nil {
		res.Spans = asm.Finalize(c.SimTime)
		if res.AoISamples > 0 {
			res.AoIMean = aoiSum / float64(res.AoISamples)
		}
		res.AoIP50 = aoiHist.Quantile(0.50)
		res.AoIP95 = aoiHist.Quantile(0.95)
		res.AoIP99 = aoiHist.Quantile(0.99)
	}
	res.Events = k.Executed()
	res.PeakEventQueue = k.MaxPending()
	return res, audit(res)
}

// Scratches is a fixed set of scratches shared by a pool of workers: Run
// holds one for the length of a run. With one scratch per worker, every
// running cell has one, and each reuses the storage its worker's previous
// cell left.
type Scratches chan *Scratch

// NewScratches makes n scratches, one per worker of a pool of n.
func NewScratches(n int) Scratches {
	p := make(Scratches, n)
	for range n {
		p <- new(Scratch)
	}
	return p
}

// Run runs c on a scratch of p's, waiting for one to be free.
func (p Scratches) Run(c Config) (*Results, error) {
	s := <-p
	defer func() { p <- s }()
	return s.Run(c)
}
