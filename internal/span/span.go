// Package span assembles the tracer's flat per-query events into causal
// spans: one terminal span per issued query, with its total latency
// decomposed into protocol phases (cache check, uplink queue, uplink
// transmit, server queue + service, downlink wait, IR-sleep wait) and a
// terminal outcome (answered, timed out, shed, or still open at the
// horizon).
//
// The Assembler is a trace.Sink: it folds the deterministic event stream
// as the tracer records it, synchronously, with no kernel events and no
// randomness of its own — a run with span assembly attached is
// bit-identical to one without. Phase attribution is a per-client state
// machine driven only by event kinds the simulator already stamps:
// every instant of an open query belongs to exactly one phase, and the
// phase durations sum to the span's total latency by construction (the
// accounting identity Summary.Identity checks).
//
// Phase semantics (DESIGN.md §14):
//
//   - ir_wait: waiting for the next invalidation report to validate the
//     cache (the paper's dominant latency term), plus control-exchange
//     backoff after an abandoned exchange.
//   - up_queue: a validation message or fetch request admitted on the
//     uplink but still queued behind other traffic.
//   - up_tx: uplink transmission, plus the time a destroyed request
//     spends dead on the wire until a retry re-queues it (retries and
//     backoff fold into the exchange phase where the loss happened).
//   - srv_wait: from request arrival at the server to the first bit of
//     the reply going on air — server queueing and service, including
//     the whole wait of fetches coalesced onto an in-flight
//     transmission (they share one service phase and get no downlink
//     stamp of their own).
//   - down_wait: the reply or fetched items on the downlink.
//   - cache_check: validation done, serving hits and sizing the fetch.
//     Zero-width in this simulator (local cache reads are free); kept
//     as an explicit phase so the decomposition generalizes.
package span

import (
	"fmt"

	"mobicache/internal/metrics"
	"mobicache/internal/stats"
	"mobicache/internal/trace"
)

// Phase indexes one component of a span's latency decomposition.
type Phase uint8

// Phases, in causal order of a full miss query.
const (
	PhaseIRWait Phase = iota
	PhaseUpQueue
	PhaseUpTx
	PhaseSrvWait
	PhaseDownWait
	PhaseCacheCheck
	NumPhases
)

// String names the phase (column-safe: [a-z_] only).
func (p Phase) String() string {
	switch p {
	case PhaseIRWait:
		return "ir_wait"
	case PhaseUpQueue:
		return "up_queue"
	case PhaseUpTx:
		return "up_tx"
	case PhaseSrvWait:
		return "srv_wait"
	case PhaseDownWait:
		return "down_wait"
	case PhaseCacheCheck:
		return "cache_check"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Outcome is a span's terminal state.
type Outcome uint8

// Outcomes.
const (
	// OutcomeOpen: the query was still in flight when the run (or the
	// event stream) ended; the span is closed at the horizon.
	OutcomeOpen Outcome = iota
	// OutcomeAnswered: the query completed normally.
	OutcomeAnswered
	// OutcomeTimedOut: the query was abandoned at its deadline.
	OutcomeTimedOut
	// OutcomeShed: the query was abandoned at admission (the bounded
	// uplink tail-dropped its only fetch request).
	OutcomeShed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeAnswered:
		return "answered"
	case OutcomeTimedOut:
		return "timed_out"
	case OutcomeShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Span is one assembled query: its lifetime and per-phase latency
// decomposition. Phases[p] durations sum to End-Start up to float
// rounding (the residual Summary.MaxResidual tracks).
type Span struct {
	Client  int32
	Index   int64 // per-client query ordinal, from 0
	Start   float64
	End     float64
	Outcome Outcome
	Items   int32 // items the query asked for
	Hits    int32 // answered from cache at validation
	Misses  int32 // fetched from the server
	Phases  [NumPhases]float64
}

// Segment is one contiguous stretch of a span spent in a single phase,
// retained only in Keep mode for trace-event export.
type Segment struct {
	Client     int32
	Phase      Phase
	Start, End float64
}

// Options configures an Assembler.
type Options struct {
	// Clients is a population hint: per-client state is preallocated for
	// ids [0, Clients) and grows on demand past it.
	Clients int
	// Horizon is the simulated end time: the upper bound of the phase
	// and total-latency histograms, and the close time Finalize uses for
	// spans still open. Must be positive.
	Horizon float64
	// Warmup excludes measurement-warmup spans: a span whose terminal
	// event lands before Warmup is assembled (the state machine needs
	// it) but not counted in the summary statistics, mirroring the
	// engine's warmup reset of the query counters.
	Warmup float64
	// Keep retains every assembled span and its phase segments for
	// trace-event export. Off, the assembler holds only fixed-size
	// per-client state and histograms.
	Keep bool
}

// histBins fixes the per-phase/total histogram resolution: Horizon/2048
// per bin (quantiles interpolate within a bin).
const histBins = 2048

// clientState is the per-client fold state: at most one open span.
type clientState struct {
	open       bool
	fetching   bool // validation finished, fetch generation in flight
	phase      Phase
	phaseStart float64
	nextIndex  int64
	cur        Span
}

// Assembler folds trace events into spans. Create with New; attach to a
// tracer with Tracer.SetSink or Tracer.AddSink (it implements
// trace.Sink); call Finalize once the run ends.
type Assembler struct {
	opt Options
	st  []clientState

	answered  int64
	timedOut  int64
	shed      int64
	openCount int64
	anomalies int64

	maxResidual float64
	totalHist   *stats.Histogram
	phaseHist   [NumPhases]*stats.Histogram

	spans []Span
	segs  []Segment

	met   [NumPhases]*metrics.Histogram
	final *Summary
}

// New creates an assembler.
func New(opt Options) *Assembler {
	if opt.Horizon <= 0 {
		panic("span: Options.Horizon must be positive")
	}
	if opt.Clients < 0 {
		panic("span: negative client hint")
	}
	a := &Assembler{
		opt:       opt,
		st:        make([]clientState, opt.Clients),
		totalHist: stats.NewHistogram(0, opt.Horizon, histBins),
	}
	for p := Phase(0); p < NumPhases; p++ {
		a.phaseHist[p] = stats.NewHistogram(0, opt.Horizon, histBins)
	}
	return a
}

// EventKinds lists every trace kind the fold consumes. An engine arming
// span assembly must leave all of them enabled on the tracer.
func EventKinds() []trace.Kind {
	return []trace.Kind{
		trace.QueryStart, trace.QueryValidated, trace.QueryDone,
		trace.QueryDeadline, trace.QueryShed,
		trace.ControlSent, trace.UplinkTxStart, trace.ControlArrived,
		trace.ValidityTxStart, trace.ValidityDelivered,
		trace.FetchSent, trace.FetchArrived, trace.ItemTxStart,
		trace.RetryAttempt,
	}
}

// RegisterMetrics additionally feeds each terminal span's phase
// durations into per-phase timeline histogram columns (phase_<name>) on
// reg, sampled on the engine's existing tick. No-op on a nil registry.
func (a *Assembler) RegisterMetrics(reg *metrics.Registry, lo, hi float64) {
	if reg == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		a.met[p] = reg.Histogram("phase_"+p.String(), lo, hi, 512, 0.50, 0.95)
	}
}

// Write implements trace.Sink: fold one event. Never returns an error —
// anomalous sequences (a stream not produced by the simulator, or one
// truncated by ring eviction) are counted, not fatal, so the assembler
// is safe on arbitrary event streams.
//
// Hot path: one call per span-relevant trace event; the fold is a pure
// state-machine step over preallocated per-client state, 0 allocs/op in
// steady state (pinned by BenchmarkSpanAssemble). Growth past the
// client hint and Keep-mode retention allocate in helpers.
//
//mobicache:hot
func (a *Assembler) Write(e trace.Event) error {
	if e.Client < 0 || a.final != nil {
		return nil
	}
	cs := a.state(e.Client)
	switch e.Kind {
	case trace.QueryStart:
		if cs.open {
			// The previous span never saw a terminal event (a stream
			// truncated mid-query); close it as open and count the anomaly.
			a.anomalies++
			a.close(cs, e.T, OutcomeOpen)
		}
		a.begin(cs, e.Client, e.T, e.B)
	case trace.QueryValidated:
		if cs.open && !cs.fetching {
			a.advance(cs, e.T, PhaseCacheCheck)
			a.validated(cs, e.A, e.B)
		}
	case trace.ControlSent:
		if cs.open && !cs.fetching {
			a.advance(cs, e.T, PhaseUpQueue)
		}
	case trace.FetchSent:
		if cs.open {
			cs.fetching = true
			a.advance(cs, e.T, PhaseUpQueue)
		}
	case trace.UplinkTxStart:
		if cs.open && cs.phase == PhaseUpQueue && (e.A == 0) == cs.fetching {
			a.advance(cs, e.T, PhaseUpTx)
		}
	case trace.ControlArrived:
		if cs.open && !cs.fetching && cs.phase == PhaseUpTx {
			a.advance(cs, e.T, PhaseSrvWait)
		}
	case trace.FetchArrived:
		if cs.open && cs.fetching && cs.phase == PhaseUpTx {
			a.advance(cs, e.T, PhaseSrvWait)
		}
	case trace.ValidityTxStart:
		if cs.open && !cs.fetching && cs.phase == PhaseSrvWait {
			a.advance(cs, e.T, PhaseDownWait)
		}
	case trace.ItemTxStart:
		if cs.open && cs.fetching && cs.phase == PhaseSrvWait {
			a.advance(cs, e.T, PhaseDownWait)
		}
	case trace.ValidityDelivered:
		if cs.open && !cs.fetching && cs.phase != PhaseIRWait {
			a.advance(cs, e.T, PhaseIRWait)
		}
	case trace.RetryAttempt:
		// A timed-out control exchange (A=1 check, 2 feedback) falls back
		// to waiting for the next report. Fetch retries (A=0) re-queue via
		// their own FetchSent.
		if e.A != 0 && cs.open && !cs.fetching && cs.phase != PhaseIRWait {
			a.advance(cs, e.T, PhaseIRWait)
		}
	case trace.QueryDone:
		a.terminal(cs, e.T, OutcomeAnswered)
	case trace.QueryDeadline:
		a.terminal(cs, e.T, OutcomeTimedOut)
	case trace.QueryShed:
		a.terminal(cs, e.T, OutcomeShed)
	}
	return nil
}

// state returns the fold state for a client id, growing the table past
// the hint on demand.
func (a *Assembler) state(id int32) *clientState {
	if int(id) >= len(a.st) {
		grown := make([]clientState, int(id)+1)
		copy(grown, a.st)
		a.st = grown
	}
	return &a.st[id]
}

// begin opens a new span at t.
func (a *Assembler) begin(cs *clientState, id int32, t float64, items int64) {
	cs.open = true
	cs.fetching = false
	cs.phase = PhaseIRWait
	cs.phaseStart = t
	cs.cur = Span{Client: id, Index: cs.nextIndex, Start: t, Items: int32(items)}
	cs.nextIndex++
}

// validated notes the validation verdict (hit/miss split) on the open
// span.
func (a *Assembler) validated(cs *clientState, hits, misses int64) {
	cs.cur.Hits = int32(hits)
	cs.cur.Misses = int32(misses)
}

// advance accrues the elapsed stretch into the current phase and enters
// the next one.
func (a *Assembler) advance(cs *clientState, t float64, to Phase) {
	if a.opt.Keep && t > cs.phaseStart {
		a.segs = append(a.segs, Segment{
			Client: cs.cur.Client, Phase: cs.phase,
			Start: cs.phaseStart, End: t,
		})
	}
	cs.cur.Phases[cs.phase] += t - cs.phaseStart
	cs.phase = to
	cs.phaseStart = t
}

// terminal closes the open span with the given outcome, counting a
// terminal event with no open span as an anomaly.
func (a *Assembler) terminal(cs *clientState, t float64, o Outcome) {
	if !cs.open {
		a.anomalies++
		return
	}
	a.close(cs, t, o)
}

// close finalizes the open span at t: the remainder accrues to the
// current phase, and — unless the span ended inside measurement warmup
// — it is counted and observed into the latency histograms.
func (a *Assembler) close(cs *clientState, t float64, o Outcome) {
	a.advance(cs, t, cs.phase) // accrue the tail; phase value is now moot
	cs.cur.End = t
	cs.cur.Outcome = o
	cs.open = false
	if t >= a.opt.Warmup {
		a.count(&cs.cur)
	}
	if a.opt.Keep {
		a.spans = append(a.spans, cs.cur)
	}
}

// count folds a terminal span into the summary statistics.
func (a *Assembler) count(s *Span) {
	switch s.Outcome {
	case OutcomeAnswered:
		a.answered++
	case OutcomeTimedOut:
		a.timedOut++
	case OutcomeShed:
		a.shed++
	case OutcomeOpen:
		a.openCount++
	}
	total := s.End - s.Start
	a.totalHist.Observe(total)
	sum := 0.0
	for p := Phase(0); p < NumPhases; p++ {
		d := s.Phases[p]
		sum += d
		a.phaseHist[p].Observe(d)
		a.met[p].Observe(d)
	}
	if r := abs(sum - total); r > a.maxResidual {
		a.maxResidual = r
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Finalize closes every still-open span at end (outcome open) and
// returns the summary. Idempotent: later calls return the same summary
// and further Write calls are ignored.
func (a *Assembler) Finalize(end float64) *Summary {
	if a.final != nil {
		return a.final
	}
	for i := range a.st {
		if a.st[i].open {
			a.close(&a.st[i], end, OutcomeOpen)
		}
	}
	s := &Summary{
		Answered:    a.answered,
		TimedOut:    a.timedOut,
		Shed:        a.shed,
		Open:        a.openCount,
		Anomalies:   a.anomalies,
		MaxResidual: a.maxResidual,
		Spans:       a.spans,
		Segments:    a.segs,
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.PhaseName[p] = p.String()
		if a.phaseHist[p].N() > 0 {
			s.PhaseP50[p] = a.phaseHist[p].Quantile(0.50)
			s.PhaseP95[p] = a.phaseHist[p].Quantile(0.95)
			s.PhaseMean[p] = phaseMean(a.phaseHist[p])
		}
	}
	if a.totalHist.N() > 0 {
		s.TotalP50 = a.totalHist.Quantile(0.50)
		s.TotalP95 = a.totalHist.Quantile(0.95)
	}
	a.final = s
	return s
}

// phaseMean approximates the mean from the histogram's bin midpoints;
// exact enough for a summary column (bin width Horizon/2048).
func phaseMean(h *stats.Histogram) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(h.Bins())
	sum := 0.0
	for i := 0; i < h.Bins(); i++ {
		sum += float64(h.Bin(i)) * (h.Lo + (float64(i)+0.5)*width)
	}
	return sum / float64(n)
}

// Summary is the assembled run's span-level digest: terminal-outcome
// counts over the measured interval, the phase-decomposition
// percentiles, and (in Keep mode) the raw spans and segments for
// trace-event export.
type Summary struct {
	// Terminal spans by outcome, counting only spans ending at or past
	// the warmup boundary (mirroring the engine's counter reset). Open
	// counts spans force-closed at the horizon.
	Answered int64 `json:"answered"`
	TimedOut int64 `json:"timed_out"`
	Shed     int64 `json:"shed"`
	Open     int64 `json:"open"`
	// Anomalies counts events that did not fit the state machine
	// (terminal without a span open, or a new query over an unterminated
	// one) — always 0 on a complete simulator stream.
	Anomalies int64 `json:"anomalies"`
	// MaxResidual is the largest |Σ phases − total latency| over all
	// counted spans, in simulated seconds: the float-tolerance slack of
	// the accounting identity.
	MaxResidual float64 `json:"max_residual_s"`

	PhaseName [NumPhases]string  `json:"phase_name"`
	PhaseP50  [NumPhases]float64 `json:"phase_p50_s"`
	PhaseP95  [NumPhases]float64 `json:"phase_p95_s"`
	PhaseMean [NumPhases]float64 `json:"phase_mean_s"`
	TotalP50  float64            `json:"total_p50_s"`
	TotalP95  float64            `json:"total_p95_s"`

	// Raw material for export; populated only in Keep mode and excluded
	// from JSON digests (a span file is written with WriteTrace).
	Spans    []Span    `json:"-"`
	Segments []Segment `json:"-"`
}

// Terminal reports the total terminal spans counted (all outcomes).
func (s *Summary) Terminal() int64 {
	return s.Answered + s.TimedOut + s.Shed + s.Open
}

// Identity checks the span accounting identity against the engine's
// independently maintained query counters over the measured interval:
// every issued query yields exactly one terminal span, per outcome, and
// the in-flight remainder matches the spans still open at the horizon.
// It also requires an anomaly-free fold — the identity is only
// meaningful on a complete stream.
func (s *Summary) Identity(issued, answered, timedOut, shed, inFlight int64) error {
	if s.Anomalies != 0 {
		return fmt.Errorf("span: %d anomalous events; stream incomplete or out of order", s.Anomalies)
	}
	if s.Answered != answered || s.TimedOut != timedOut || s.Shed != shed || s.Open != inFlight {
		return fmt.Errorf("span: outcome counts (answered=%d timed_out=%d shed=%d open=%d) != engine counters (answered=%d timed_out=%d shed=%d in_flight=%d)",
			s.Answered, s.TimedOut, s.Shed, s.Open, answered, timedOut, shed, inFlight)
	}
	if got := s.Terminal(); got != issued {
		return fmt.Errorf("span: %d terminal spans for %d issued queries", got, issued)
	}
	return nil
}
