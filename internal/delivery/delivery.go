// Package delivery is the adversarial-delivery layer of the simulator.
// The paper assumes every broadcast arrives in order, exactly once, and
// that server and clients share one clock; real wireless cells reorder,
// duplicate, jitter, and partition, and mobile hosts drift. This package
// supplies those pathologies as deterministic, seeded injections,
// composable with the Gilbert–Elliott fault layer (internal/faults) and
// the overload caps (internal/overload):
//
//   - per-link delay jitter: every admitted message is delivered after an
//     extra uniform delay, so deliveries on one link interleave out of
//     their transmission order;
//   - bounded reordering windows: a fraction of messages draw an extra
//     delay up to ReorderDelay, pushing them past later messages (and,
//     when the window exceeds the broadcast period, past later
//     invalidation reports);
//   - duplication: a fraction of messages are delivered twice;
//   - asymmetric partitions: the cell splits (downlink-only, uplink-only,
//     or full) for an exponentially distributed interval and heals on
//     schedule; messages reaching a partitioned link are destroyed;
//   - per-client clock skew and drift: each client's local clock reads
//     true time t as t + Offset + Drift·t, bounded by the protocol's
//     skew bound ε (Config.Epsilon).
//
// Everything draws from internal/rng streams: identical seeds produce
// identical adversarial schedules. A disabled layer consumes no
// randomness and schedules no events, keeping seeded results
// bit-identical to runs built without it (pinned by
// TestDeliveryFreeResultsUnchanged). The protocol-side defense — the
// broadcast sequence fence clients run over internal/report's frame
// header — lives in internal/core and internal/population; DESIGN.md §13
// states the contract.
package delivery

import (
	"fmt"
	"math"

	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/trace"
)

// LinkParams tunes one link's delivery adversary. The zero value delivers
// perfectly and consumes no randomness.
type LinkParams struct {
	// Jitter is the maximum extra delivery delay in seconds: each message
	// is delayed by an independent uniform draw from [0, Jitter), so
	// same-link deliveries reorder within that window.
	Jitter float64
	// ReorderProb is the per-message probability of an additional reorder
	// delay, uniform in [0, ReorderDelay) — messages pushed past the
	// ordinary jitter window, and (when ReorderDelay exceeds the
	// broadcast period) past later invalidation reports.
	ReorderProb float64
	// ReorderDelay is the maximum reorder delay in seconds.
	ReorderDelay float64
	// DupProb is the per-message probability of a duplicate delivery (the
	// copy arrives after its own jitter draw).
	DupProb float64
}

// Enabled reports whether the link adversary can ever perturb a message.
func (l LinkParams) Enabled() bool {
	return l.Jitter > 0 || l.ReorderProb > 0 || l.DupProb > 0
}

// Validate reports the first out-of-range field, naming it with the given
// prefix (e.g. "Delivery.Down").
func (l LinkParams) Validate(name string) error {
	switch {
	case l.Jitter < 0 || math.IsNaN(l.Jitter):
		return fmt.Errorf("delivery: %s.Jitter = %v negative", name, l.Jitter)
	case l.ReorderProb < 0 || l.ReorderProb > 1 || math.IsNaN(l.ReorderProb):
		return fmt.Errorf("delivery: %s.ReorderProb = %v outside [0, 1]", name, l.ReorderProb)
	case l.ReorderProb > 0 && l.ReorderDelay <= 0:
		return fmt.Errorf("delivery: %s.ReorderDelay = %v not positive with ReorderProb set", name, l.ReorderDelay)
	case l.ReorderProb == 0 && l.ReorderDelay != 0:
		return fmt.Errorf("delivery: %s.ReorderDelay = %v set without ReorderProb", name, l.ReorderDelay)
	case l.DupProb < 0 || l.DupProb > 1 || math.IsNaN(l.DupProb):
		return fmt.Errorf("delivery: %s.DupProb = %v outside [0, 1]", name, l.DupProb)
	}
	return nil
}

// PartitionMode says which link(s) a partition severs.
type PartitionMode int

// Partition modes.
const (
	// PartitionDownOnly severs only the broadcast downlink: clients go
	// deaf but their uplink messages still reach the server.
	PartitionDownOnly PartitionMode = iota
	// PartitionUpOnly severs only the shared uplink: clients hear reports
	// but their checks, feedback and fetches vanish.
	PartitionUpOnly
	// PartitionFull severs both links.
	PartitionFull
	numPartitionModes
)

// String names the mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionDownOnly:
		return "down-only"
	case PartitionUpOnly:
		return "up-only"
	case PartitionFull:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config gathers every adversarial-delivery knob of one run. The zero
// value injects nothing and consumes no randomness.
type Config struct {
	// Down is the broadcast downlink's delivery adversary.
	Down LinkParams
	// Up is the shared uplink's delivery adversary.
	Up LinkParams
	// PartitionMTBF is the mean time between partitions in seconds
	// (exponential); 0 means the cell never partitions.
	PartitionMTBF float64
	// PartitionMTTR is the mean partition duration in seconds
	// (exponential). Required when PartitionMTBF is set. The heal is
	// scheduled when the partition starts.
	PartitionMTTR float64
	// SkewMax bounds each client's constant clock offset: offsets are
	// uniform in [-SkewMax, SkewMax] seconds.
	SkewMax float64
	// DriftMax bounds each client's clock drift rate: rates are uniform
	// in [-DriftMax, DriftMax] seconds per simulated second.
	DriftMax float64
	// Epsilon is the protocol's assumed bound ε on total client clock
	// error: a client rejects (degrades on) any report whose server
	// timestamp exceeds its local clock by more than ε. It must dominate
	// the worst injected error, SkewMax + DriftMax·horizon, or honest
	// reports trip the guard — engine validation enforces that against
	// the run's actual horizon. Required when SkewMax or DriftMax is set.
	Epsilon float64
}

// Enabled reports whether any adversarial delivery is configured.
func (c Config) Enabled() bool {
	return c.Down.Enabled() || c.Up.Enabled() || c.PartitionMTBF > 0 ||
		c.SkewMax > 0 || c.DriftMax > 0
}

// Validate reports the first invalid field by name. Because jittered,
// reordered, duplicated or partitioned delivery can strand an uplink
// exchange forever (a fetch destroyed by a partition never completes),
// any enabled adversary requires a recovery path — an uplink retry
// policy (Faults.Retry) or a client query deadline
// (Overload.QueryDeadline) — which the caller reports via recovery.
// horizon is the run's simulated end time, used to check ε against the
// worst drift-accumulated clock error.
func (c Config) Validate(recovery bool, horizon float64) error {
	if err := c.Down.Validate("Delivery.Down"); err != nil {
		return err
	}
	if err := c.Up.Validate("Delivery.Up"); err != nil {
		return err
	}
	switch {
	case c.PartitionMTBF < 0 || math.IsNaN(c.PartitionMTBF):
		return fmt.Errorf("delivery: Delivery.PartitionMTBF = %v negative", c.PartitionMTBF)
	case c.PartitionMTBF > 0 && c.PartitionMTTR <= 0:
		return fmt.Errorf("delivery: Delivery.PartitionMTTR = %v not positive with PartitionMTBF set", c.PartitionMTTR)
	case c.PartitionMTBF == 0 && c.PartitionMTTR != 0:
		return fmt.Errorf("delivery: Delivery.PartitionMTTR = %v set without PartitionMTBF", c.PartitionMTTR)
	case c.SkewMax < 0 || math.IsNaN(c.SkewMax):
		return fmt.Errorf("delivery: Delivery.SkewMax = %v negative", c.SkewMax)
	case c.DriftMax < 0 || math.IsNaN(c.DriftMax):
		return fmt.Errorf("delivery: Delivery.DriftMax = %v negative", c.DriftMax)
	case (c.SkewMax > 0 || c.DriftMax > 0) && c.Epsilon <= 0:
		return fmt.Errorf("delivery: Delivery.Epsilon = %v not positive with clock skew armed", c.Epsilon)
	case c.Epsilon < 0 || math.IsNaN(c.Epsilon):
		return fmt.Errorf("delivery: Delivery.Epsilon = %v negative", c.Epsilon)
	case c.Epsilon > 0 && c.Epsilon < c.SkewMax+c.DriftMax*horizon:
		return fmt.Errorf("delivery: Delivery.Epsilon = %v below worst clock error %v (SkewMax + DriftMax*horizon); honest reports would trip the skew guard",
			c.Epsilon, c.SkewMax+c.DriftMax*horizon)
	case c.Enabled() && !recovery:
		return fmt.Errorf("delivery: adversarial delivery requires a recovery path (Faults.Retry or Overload.QueryDeadline), or a destroyed uplink exchange strands its client forever")
	}
	return nil
}

// Severity maps an intensity level (0 = off, 1..4 increasingly hostile)
// to a delivery configuration — the axis the ext-delivery sweep walks.
// Level 1 already reorders past the broadcast period (ReorderDelay > L),
// so the sequence fence is exercised at every enabled level; level 4
// partitions the cell roughly every 20 broadcast intervals. Epsilon is
// sized for horizons up to 200000 s (twice the paper's full runs).
func Severity(level float64) Config {
	if level <= 0 {
		return Config{}
	}
	return Config{
		Down: LinkParams{
			Jitter:       1.5 * level,
			ReorderProb:  0.04 * level,
			ReorderDelay: 22 + 3*level,
			DupProb:      0.04 * level,
		},
		Up: LinkParams{
			Jitter:       1.0 * level,
			ReorderProb:  0.03 * level,
			ReorderDelay: 8 * level,
			DupProb:      0.03 * level,
		},
		PartitionMTBF: 8000 / level,
		PartitionMTTR: 40 * level,
		SkewMax:       0.5 * level,
		DriftMax:      1e-5 * level,
		Epsilon:       0.5*level + 1e-5*level*200000,
	}
}

// Clock models one client's local clock error: Read maps a true
// (kernel/server) timestamp to the client's perceived local time. The
// zero value is a perfect clock.
type Clock struct {
	// Offset is the constant skew in seconds.
	Offset float64
	// Drift is the rate error in seconds per simulated second.
	Drift float64
}

// Read returns the client's local reading of true time t.
func (c Clock) Read(t float64) float64 { return t + c.Offset + c.Drift*t }

// Link is one channel's delivery adversary: it intercepts the delivery
// event of every admitted message and applies partition destruction,
// jitter, reordering, and duplication. Like everything under the kernel
// it is single-threaded; give each link its own randomness stream.
type Link struct {
	k   *sim.Kernel
	p   LinkParams
	src *rng.Source
	// blocked marks an active partition severing this link.
	blocked bool
	// pool holds the carriers not on the calendar.
	pool []*carrier

	// Delayed counts messages whose delivery the adversary postponed;
	// Reordered the subset pushed past the reorder window; Dups the
	// duplicate deliveries injected; PartitionDrops the messages
	// destroyed by an active partition.
	Delayed, Reordered, Dups, PartitionDrops int64
}

// carrier holds one postponed or duplicated delivery on the calendar.
// fn is its fire method, bound once when the carrier is made, so a
// recycled carrier schedules without building a closure.
type carrier struct {
	l  *Link
	ev sim.Event
	fn func()
}

// fire returns the carrier to its link's pool, then fires the event it
// carried. The event may deliver again on this link and reuse the
// carrier at once.
func (c *carrier) fire() {
	ev := c.ev
	c.ev = nil
	//lint:allow hotalloc the pool never outgrows the link's high-water mark of postponed deliveries, so growth stops once it warms up
	c.l.pool = append(c.l.pool, c)
	ev.Fire()
}

// schedule fires ev after delay d on a carrier from the pool. Each
// carrier is scheduled once per trip, so the kernel sees exactly one
// Schedule(d, ...) per postponed delivery.
func (l *Link) schedule(d float64, ev sim.Event) {
	var c *carrier
	if n := len(l.pool); n > 0 {
		c = l.pool[n-1]
		l.pool[n-1] = nil
		l.pool = l.pool[:n-1]
	} else {
		//lint:allow hotalloc pool miss is the cold fill path; a carrier and its bound fire method are made once and then recycled
		c = &carrier{l: l}
		c.fn = c.fire
	}
	c.ev = ev
	l.k.Schedule(d, c.fn)
}

// Deliver runs one message's delivery through the adversary: destroyed
// during a partition, otherwise fired after the drawn delays
// (immediately when no delay applies), plus a possible duplicate. Only
// armed links are consulted — the disabled layer never constructs a Link
// — so every draw here is behind an explicit enable.
//
//mobicache:hot
func (l *Link) Deliver(ev sim.Event) {
	if l.blocked {
		l.PartitionDrops++
		return
	}
	var d float64
	if l.p.Jitter > 0 {
		d = l.src.Uniform(0, l.p.Jitter)
	}
	if l.p.ReorderProb > 0 && l.src.Bool(l.p.ReorderProb) {
		d += l.src.Uniform(0, l.p.ReorderDelay)
		l.Reordered++
	}
	if d > 0 {
		l.Delayed++
		l.schedule(d, ev)
	} else {
		ev.Fire()
	}
	if l.p.DupProb > 0 && l.src.Bool(l.p.DupProb) {
		var d2 float64
		if l.p.Jitter > 0 {
			d2 = l.src.Uniform(0, l.p.Jitter)
		}
		l.Dups++
		l.schedule(d2, ev)
	}
}

// ResetStats zeroes the link's counters (warmup).
func (l *Link) ResetStats() {
	if l == nil {
		return
	}
	l.Delayed, l.Reordered, l.Dups, l.PartitionDrops = 0, 0, 0, 0
}

// Adversary owns one run's delivery chaos: the two link adversaries, the
// partition schedule, and the per-client clock-error draws. Randomness
// splits off the source the engine hands it (streams 0 = downlink,
// 1 = uplink, 2 = partitions, 3 = clocks), consumed only by armed
// mechanisms.
type Adversary struct {
	k    *sim.Kernel
	cfg  Config
	tr   *trace.Tracer
	part *rng.Source
	clk  *rng.Source

	// Down and Up are the per-link adversaries; nil when that link's
	// params are zero AND partitions are off (nothing to inject).
	Down, Up *Link

	// Partitions counts partition events started.
	Partitions int64
	mode       PartitionMode
	inPart     bool
}

// New builds the adversary for one run. Returns nil when the config is
// disabled, so callers can test against nil — and a nil adversary
// consumes no randomness and schedules no events.
func New(k *sim.Kernel, cfg Config, src *rng.Source, tr *trace.Tracer) *Adversary {
	if !cfg.Enabled() {
		return nil
	}
	a := &Adversary{k: k, cfg: cfg, tr: tr, part: src.Split(2), clk: src.Split(3)}
	if cfg.Down.Enabled() || cfg.PartitionMTBF > 0 {
		a.Down = &Link{k: k, p: cfg.Down, src: src.Split(0)}
	}
	if cfg.Up.Enabled() || cfg.PartitionMTBF > 0 {
		a.Up = &Link{k: k, p: cfg.Up, src: src.Split(1)}
	}
	return a
}

// ClockFor draws the next client's clock-error model; the engine calls it
// once per client in index order, so assignments are a pure function of
// the seed. Draws are skipped entirely when the respective bound is zero.
func (a *Adversary) ClockFor() Clock {
	var c Clock
	if a.cfg.SkewMax > 0 {
		c.Offset = a.clk.Uniform(-a.cfg.SkewMax, a.cfg.SkewMax)
	}
	if a.cfg.DriftMax > 0 {
		c.Drift = a.clk.Uniform(-a.cfg.DriftMax, a.cfg.DriftMax)
	}
	return c
}

// Start schedules the partition process (a no-op unless configured).
// Call once before Kernel.Run.
func (a *Adversary) Start() {
	if a.cfg.PartitionMTBF <= 0 {
		return
	}
	a.k.Schedule(a.part.Exp(a.cfg.PartitionMTBF), a.beginPartition)
}

// beginPartition severs the drawn link set and schedules the heal.
func (a *Adversary) beginPartition() {
	a.mode = PartitionMode(a.part.Intn(int(numPartitionModes)))
	a.inPart = true
	a.Partitions++
	dur := a.part.Exp(a.cfg.PartitionMTTR)
	if a.mode == PartitionDownOnly || a.mode == PartitionFull {
		a.Down.blocked = true
	}
	if a.mode == PartitionUpOnly || a.mode == PartitionFull {
		a.Up.blocked = true
	}
	now := a.k.Now()
	a.tr.Record(trace.Event{T: now, Kind: trace.PartitionStart, Client: -1,
		A: int64(a.mode), B: int64((now + dur) * 1e6)})
	a.k.Schedule(dur, a.heal)
}

// heal restores the severed links and schedules the next partition.
func (a *Adversary) heal() {
	a.Down.blocked = false
	a.Up.blocked = false
	a.inPart = false
	a.tr.Record(trace.Event{T: a.k.Now(), Kind: trace.PartitionHeal, Client: -1, A: int64(a.mode)})
	a.k.Schedule(a.part.Exp(a.cfg.PartitionMTBF), a.beginPartition)
}

// Delayed sums postponed deliveries across both links.
func (a *Adversary) Delayed() int64 { return a.Down.delayed() + a.Up.delayed() }

// Reordered sums reorder-window pushes across both links.
func (a *Adversary) Reordered() int64 { return a.Down.reordered() + a.Up.reordered() }

// Dups sums injected duplicate deliveries across both links.
func (a *Adversary) Dups() int64 { return a.Down.dups() + a.Up.dups() }

// PartitionDrops sums partition-destroyed messages across both links.
func (a *Adversary) PartitionDrops() int64 { return a.Down.partitionDrops() + a.Up.partitionDrops() }

func (l *Link) delayed() int64 {
	if l == nil {
		return 0
	}
	return l.Delayed
}

func (l *Link) reordered() int64 {
	if l == nil {
		return 0
	}
	return l.Reordered
}

func (l *Link) dups() int64 {
	if l == nil {
		return 0
	}
	return l.Dups
}

func (l *Link) partitionDrops() int64 {
	if l == nil {
		return 0
	}
	return l.PartitionDrops
}

// ResetStats zeroes the adversary's counters (warmup). Schedules and
// randomness are untouched — only the tallies restart.
func (a *Adversary) ResetStats() {
	if a == nil {
		return
	}
	a.Partitions = 0
	a.Down.ResetStats()
	a.Up.ResetStats()
}
