// Package churn is the population adversary of the simulator. The paper
// models disconnection as independent per-client naps with the cache
// surviving intact; real mobile populations fail together and restart
// with lost or stale local state. This package supplies those
// pathologies as deterministic, seeded injections, composable with the
// fault (internal/faults), overload (internal/overload) and delivery
// (internal/delivery) layers:
//
//   - mass-disconnect storms: at exponential inter-storm times a seeded
//     cohort fraction of the population is forced into disconnection for
//     a drawn duration, then reconnects as a flash crowd at heal;
//   - client crash/restart: each client's process dies at exponential
//     times and restarts after an exponential outage, either cold (cache
//     dropped) or warm from a persisted snapshot — a real bit-packed,
//     epoch-tagged, checksummed checkpoint (snapshot.go) that a
//     staleness/corruption fault can invalidate, in which case the
//     restart verifiably rejects it back to a cold start rather than
//     trusting it;
//   - resync pacing: each storm survivor wakes after an independent
//     jittered backoff, spreading the reconnection thundering herd over
//     the uplink instead of collapsing it; the revalidation traffic then
//     rides the admission-control and retry machinery that is already
//     armed.
//
// Everything draws from internal/rng streams: identical seeds produce
// identical storm, crash and fault schedules. A disabled layer consumes
// no randomness and schedules no events, keeping seeded results
// bit-identical to runs built without it (pinned by
// TestChurnFreeResultsUnchanged). The protocol-side story needs no new
// mechanism: a resumed client renegotiates from its (restored or empty)
// Tlb through the same window logic and epochGate/seqGate degraded paths
// every scheme already implements for long voluntary disconnections.
// DESIGN.md §15 states the contract.
package churn

import (
	"fmt"
	"math"

	"mobicache/internal/bitio"
	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/trace"
)

// Config gathers every population-churn knob of one run. The zero value
// injects nothing and consumes no randomness.
type Config struct {
	// StormMTBF is the mean time between mass-disconnect storms in
	// seconds (exponential); 0 means storms never happen.
	StormMTBF float64
	// StormMTTR is the mean storm duration in seconds (exponential).
	// Required when StormMTBF is set; the heal is scheduled when the
	// storm starts.
	StormMTTR float64
	// StormFrac is the per-client probability of being drawn into a
	// storm's cohort. Required in (0, 1] when StormMTBF is set.
	StormFrac float64
	// ResyncSpread is the maximum post-heal reconnection backoff in
	// seconds: each cohort member resumes after an independent uniform
	// draw from [0, ResyncSpread), pacing the flash crowd. 0 reconnects
	// the whole cohort at the heal instant.
	ResyncSpread float64

	// CrashMTBF is each client's mean time between process crashes in
	// seconds (exponential, independent per client); 0 disables crashes.
	CrashMTBF float64
	// CrashMTTR is the mean outage before the restart in seconds
	// (exponential). Required when CrashMTBF is set.
	CrashMTTR float64
	// WarmProb is the probability that a crashing client managed to
	// persist a cache snapshot; with the remaining probability (and
	// whenever a persisted snapshot is rejected) the restart is cold.
	WarmProb float64
	// SnapshotTTL is the trust horizon of a persisted snapshot in
	// seconds: a restart rejects any snapshot older than this back to a
	// cold start. Required with WarmProb; Validate rejects a TTL beyond
	// the invalidation window w·L, because a warm cache older than the
	// window can never be covered by a default report.
	SnapshotTTL float64
	// SnapshotCorruptProb is the probability that a persisted snapshot
	// is corrupted on disk (one seeded bit flip); the CRC catches every
	// single-bit flip, so such a snapshot is always rejected.
	SnapshotCorruptProb float64
	// SnapshotStaleProb is the probability that the snapshot on disk
	// predates the crash by more than the TTL (an old checkpoint the
	// dying process never replaced); it is persisted with the honest old
	// timestamp and therefore always rejected as stale.
	SnapshotStaleProb float64
}

// Enabled reports whether any population churn is configured.
func (c Config) Enabled() bool { return c.StormMTBF > 0 || c.CrashMTBF > 0 }

// Validate reports the first invalid field by name. Because a forced
// disconnection can strand an in-flight uplink exchange (the fetch
// reply arrives at a powered-off host), any enabled churn requires a
// recovery path — an uplink retry policy (Faults.Retry) or a client
// query deadline (Overload.QueryDeadline) — which the caller reports
// via recovery. windowSec is the run's invalidation window w·L, the
// ceiling on SnapshotTTL.
func (c Config) Validate(recovery bool, windowSec float64) error {
	switch {
	case c.StormMTBF < 0 || math.IsNaN(c.StormMTBF):
		return fmt.Errorf("churn: Churn.StormMTBF = %v negative", c.StormMTBF)
	case c.StormMTBF > 0 && c.StormMTTR <= 0:
		return fmt.Errorf("churn: Churn.StormMTTR = %v not positive with StormMTBF set", c.StormMTTR)
	case c.StormMTBF == 0 && c.StormMTTR != 0:
		return fmt.Errorf("churn: Churn.StormMTTR = %v set without StormMTBF", c.StormMTTR)
	case c.StormMTBF > 0 && !(c.StormFrac > 0 && c.StormFrac <= 1):
		return fmt.Errorf("churn: Churn.StormFrac = %v outside (0, 1] with StormMTBF set", c.StormFrac)
	case c.StormMTBF == 0 && c.StormFrac != 0:
		return fmt.Errorf("churn: Churn.StormFrac = %v set without StormMTBF", c.StormFrac)
	case c.ResyncSpread < 0 || math.IsNaN(c.ResyncSpread):
		return fmt.Errorf("churn: Churn.ResyncSpread = %v negative", c.ResyncSpread)
	case c.ResyncSpread > 0 && c.StormMTBF == 0:
		return fmt.Errorf("churn: Churn.ResyncSpread = %v set without StormMTBF", c.ResyncSpread)
	case c.CrashMTBF < 0 || math.IsNaN(c.CrashMTBF):
		return fmt.Errorf("churn: Churn.CrashMTBF = %v negative", c.CrashMTBF)
	case c.CrashMTBF > 0 && c.CrashMTTR <= 0:
		return fmt.Errorf("churn: Churn.CrashMTTR = %v not positive with CrashMTBF set", c.CrashMTTR)
	case c.CrashMTBF == 0 && c.CrashMTTR != 0:
		return fmt.Errorf("churn: Churn.CrashMTTR = %v set without CrashMTBF", c.CrashMTTR)
	case c.WarmProb < 0 || c.WarmProb > 1 || math.IsNaN(c.WarmProb):
		return fmt.Errorf("churn: Churn.WarmProb = %v outside [0, 1]", c.WarmProb)
	case c.WarmProb > 0 && c.CrashMTBF == 0:
		return fmt.Errorf("churn: Churn.WarmProb = %v set without CrashMTBF", c.WarmProb)
	case c.WarmProb > 0 && c.SnapshotTTL <= 0:
		return fmt.Errorf("churn: Churn.SnapshotTTL = %v not positive with WarmProb set; warm restarts need a trust horizon", c.SnapshotTTL)
	case c.WarmProb == 0 && c.SnapshotTTL != 0:
		return fmt.Errorf("churn: Churn.SnapshotTTL = %v set without WarmProb", c.SnapshotTTL)
	case c.SnapshotTTL > windowSec:
		return fmt.Errorf("churn: Churn.SnapshotTTL = %v beyond the invalidation window %v (w·L); a warm cache older than the window can never be covered by a default report", c.SnapshotTTL, windowSec)
	case c.SnapshotCorruptProb < 0 || c.SnapshotCorruptProb > 1 || math.IsNaN(c.SnapshotCorruptProb):
		return fmt.Errorf("churn: Churn.SnapshotCorruptProb = %v outside [0, 1]", c.SnapshotCorruptProb)
	case c.SnapshotCorruptProb > 0 && c.WarmProb == 0:
		return fmt.Errorf("churn: Churn.SnapshotCorruptProb = %v set without WarmProb", c.SnapshotCorruptProb)
	case c.SnapshotStaleProb < 0 || c.SnapshotStaleProb > 1 || math.IsNaN(c.SnapshotStaleProb):
		return fmt.Errorf("churn: Churn.SnapshotStaleProb = %v outside [0, 1]", c.SnapshotStaleProb)
	case c.SnapshotStaleProb > 0 && c.WarmProb == 0:
		return fmt.Errorf("churn: Churn.SnapshotStaleProb = %v set without WarmProb", c.SnapshotStaleProb)
	case c.Enabled() && !recovery:
		return fmt.Errorf("churn: population churn requires a recovery path (Faults.Retry or Overload.QueryDeadline), or a fetch stranded by a forced disconnection blocks its client forever")
	}
	return nil
}

// Severity maps an intensity level (0 = off, 1..4 increasingly hostile)
// to a churn configuration — the axis the ext-churn sweep walks. Level 1
// already storms a sixth of the population and crashes every client a
// few times per full run; level 4 storms roughly every 1000 s, takes
// down three quarters of the cell each time, and corrupts or backdates
// a fifth of the persisted snapshots. SnapshotTTL stays at 120 s, under
// the default window w·L = 200 s, so Severity configs validate against
// Default-shaped runs at every level.
func Severity(level float64) Config {
	if level <= 0 {
		return Config{}
	}
	return Config{
		StormMTBF:           4000 / level,
		StormMTTR:           60 * level,
		StormFrac:           0.15 + 0.15*level,
		ResyncSpread:        15 * level,
		CrashMTBF:           8000 / level,
		CrashMTTR:           30 * level,
		WarmProb:            0.7,
		SnapshotTTL:         120,
		SnapshotCorruptProb: 0.05 * level,
		SnapshotStaleProb:   0.05 * level,
	}
}

// Host is the adversary's view of a mobile client. The hosting client
// implements the four transitions; the adversary owns when they happen
// and what snapshot (if any) a restart gets.
type Host interface {
	// State exposes the protocol state the snapshot encoder reads.
	State() *core.ClientState
	// StormDown forces the host into disconnection (storm membership).
	// Idempotent: a host already storm-downed stays down.
	StormDown()
	// StormUp releases the storm hold; paced says the resume came
	// through the jittered backoff rather than the heal instant.
	// Idempotent, and the host stays offline while also crashed.
	StormUp(paced bool)
	// CrashDown kills the host's process: cache and protocol state
	// survive in memory only until Restart decides their fate.
	CrashDown()
	// Restart revives the host: warm from the decoded snapshot when
	// snap is non-nil, cold otherwise. rejected says a persisted
	// snapshot existed but was verifiably refused.
	Restart(snap *Snapshot, rejected bool)
}

// persisted is one host's on-disk snapshot slot: the encoded bitstream
// (buffer reused across crashes) and whether a checkpoint is present.
type persisted struct {
	buf   []byte
	nbits int
	valid bool
}

// Adversary owns one run's population churn: the storm process, the
// per-host crash/restart processes, and the persisted-snapshot fault
// model. Randomness splits off the source the engine hands it (stream
// 0 = storms, 1 = resync pacing, 1000+i = host i's crash process),
// consumed only by armed mechanisms.
type Adversary struct {
	k     *sim.Kernel
	cfg   Config
	tr    *trace.Tracer
	src   *rng.Source
	storm *rng.Source
	pace  *rng.Source

	hosts    []Host
	hostRNG  []*rng.Source
	inStorm  []bool
	persist  []persisted
	cacheCap int
	cohort   int // size of the storm in progress

	// Cached closures and scratch space so the steady-state storm and
	// snapshot paths allocate nothing.
	beginStormFn, healStormFn func()
	crashFns, restartFns      []func()
	resumeFns                 []func()
	scratch                   []cache.Entry
	snap                      Snapshot

	// Storms counts storms started; PacedResumes counts cohort members
	// whose reconnection came through the jittered backoff.
	Storms       int64
	PacedResumes int64
}

// New builds the adversary for one run. Returns nil when the config is
// disabled, so callers can test against nil — and a nil adversary
// consumes no randomness and schedules no events. Call Attach with the
// client population, then Start before Kernel.Run.
func New(k *sim.Kernel, cfg Config, src *rng.Source, tr *trace.Tracer) *Adversary {
	if !cfg.Enabled() {
		return nil
	}
	a := &Adversary{k: k, cfg: cfg, tr: tr, src: src,
		storm: src.Split(0), pace: src.Split(1)}
	a.beginStormFn = a.beginStorm
	a.healStormFn = a.healStorm
	return a
}

// Attach registers the client population (in index order) and sizes the
// per-host state: crash streams, snapshot slots, and the cached
// closures the event paths schedule. cacheCap is the per-client cache
// capacity, the decoder's entry-count bound.
func (a *Adversary) Attach(cacheCap int, hosts ...Host) {
	a.hosts = hosts
	a.cacheCap = cacheCap
	a.inStorm = make([]bool, len(hosts))
	if a.cfg.CrashMTBF <= 0 {
		return
	}
	a.hostRNG = make([]*rng.Source, len(hosts))
	a.persist = make([]persisted, len(hosts))
	a.crashFns = make([]func(), len(hosts))
	a.restartFns = make([]func(), len(hosts))
	a.resumeFns = make([]func(), len(hosts))
	for i := range hosts {
		i := i
		a.hostRNG[i] = a.src.Split(1000 + uint64(i))
		a.crashFns[i] = func() { a.crash(i) }
		a.restartFns[i] = func() { a.restart(i) }
		a.resumeFns[i] = func() { a.resume(i) }
	}
}

// Start schedules the storm process and every host's first crash (each
// a no-op unless configured). Call once after Attach, before Kernel.Run.
func (a *Adversary) Start() {
	if a.cfg.StormMTBF > 0 {
		if a.cfg.ResyncSpread > 0 && a.resumeFns == nil {
			// Storms without crashes still need the paced-resume closures.
			a.resumeFns = make([]func(), len(a.hosts))
			for i := range a.hosts {
				i := i
				a.resumeFns[i] = func() { a.resume(i) }
			}
		}
		a.k.Schedule(a.storm.Exp(a.cfg.StormMTBF), a.beginStormFn)
	}
	if a.cfg.CrashMTBF > 0 {
		for i := range a.hosts {
			a.k.Schedule(a.hostRNG[i].Exp(a.cfg.CrashMTBF), a.crashFns[i])
		}
	}
}

// beginStorm forces the drawn cohort down and schedules the heal; the
// next storm is scheduled at heal time, so storms never overlap.
func (a *Adversary) beginStorm() {
	n := a.stormTick()
	a.cohort = n
	a.Storms++
	dur := a.storm.Exp(a.cfg.StormMTTR)
	now := a.k.Now()
	a.tr.Record(trace.Event{T: now, Kind: trace.StormStart, Client: -1,
		A: int64(n), B: int64((now + dur) * 1e6)})
	a.k.Schedule(dur, a.healStormFn)
}

// stormTick draws storm membership for every host in index order (a
// pure function of the seed) and forces the cohort down.
//
// Hot path: one Bool draw and at most one StormDown per host per storm; the
// membership draw happens for every host regardless of the outcome, so
// the stream position after a storm is independent of who went down.
//
//mobicache:hot
func (a *Adversary) stormTick() int {
	n := 0
	for i, h := range a.hosts {
		if a.storm.Bool(a.cfg.StormFrac) {
			a.inStorm[i] = true
			h.StormDown()
			n++
		}
	}
	return n
}

// healStorm releases the cohort — immediately, or through per-host
// jittered backoff when resync pacing is armed — and schedules the next
// storm.
func (a *Adversary) healStorm() {
	now := a.k.Now()
	for i := range a.hosts {
		if !a.inStorm[i] {
			continue
		}
		a.inStorm[i] = false
		if a.cfg.ResyncSpread > 0 {
			if d := a.pace.Uniform(0, a.cfg.ResyncSpread); d > 0 {
				a.tr.Record(trace.Event{T: now, Kind: trace.ResyncPaced,
					Client: a.hosts[i].State().ID, B: int64(d * 1e6)})
				a.k.Schedule(d, a.resumeFns[i])
				continue
			}
		}
		a.hosts[i].StormUp(false)
	}
	a.tr.Record(trace.Event{T: now, Kind: trace.StormEnd, Client: -1, A: int64(a.cohort)})
	a.cohort = 0
	a.k.Schedule(a.storm.Exp(a.cfg.StormMTBF), a.beginStormFn)
}

// resume is one host's paced post-storm reconnection.
func (a *Adversary) resume(i int) {
	if a.inStorm[i] {
		// A new storm caught the host before its paced resume fired; the
		// new storm's heal owns the reconnection now.
		return
	}
	a.PacedResumes++
	a.hosts[i].StormUp(true)
}

// crash kills host i, deciding first whether a snapshot makes it to
// disk, and schedules the restart.
func (a *Adversary) crash(i int) {
	h := a.hosts[i]
	hr := a.hostRNG[i]
	var persistedFlag int64
	if a.cfg.WarmProb > 0 && hr.Bool(a.cfg.WarmProb) {
		a.snapshot(i)
		persistedFlag = 1
	} else {
		a.persist[i].valid = false
	}
	h.CrashDown()
	a.tr.Record(trace.Event{T: a.k.Now(), Kind: trace.ClientCrash,
		Client: h.State().ID, A: persistedFlag})
	a.k.Schedule(hr.Exp(a.cfg.CrashMTTR), a.restartFns[i])
}

// snapshot persists host i's cache through the real codec into its
// snapshot slot, then applies the staleness/corruption faults: a stale
// fault backdates the persist instant past the TTL (the honest old
// checkpoint the dying process never replaced), a corruption fault
// flips one seeded bit (which the CRC is guaranteed to catch). Both
// therefore force the restart down the verified-rejection path — the
// snapshot content is never silently trusted anyway.
//
// Hot path: runs at every warm-persisting crash; the scratch entry slice,
// the per-host snapshot buffer and the pooled bitio writer all reuse
// their allocations in steady state.
//
//mobicache:hot
func (a *Adversary) snapshot(i int) {
	st := a.hosts[i].State()
	hr := a.hostRNG[i]
	now := a.k.Now()
	a.snap.Epoch = st.Epoch
	a.snap.PersistAt = now
	a.snap.Tlb = st.Tlb
	a.snap.Entries = st.Cache.Entries(a.scratch[:0])
	if a.cfg.SnapshotStaleProb > 0 && hr.Bool(a.cfg.SnapshotStaleProb) {
		a.snap.PersistAt = now - a.cfg.SnapshotTTL - hr.Uniform(0, a.cfg.SnapshotTTL)
		if a.snap.Tlb > a.snap.PersistAt {
			// The old checkpoint's validation horizon cannot postdate its
			// own persist instant.
			a.snap.Tlb = a.snap.PersistAt
		}
	}
	w := bitio.GetWriter()
	EncodeSnapshot(&a.snap, w)
	p := &a.persist[i]
	//lint:allow hotalloc the per-host snapshot buffer keeps its capacity across crashes, so steady-state persists reuse the backing array
	p.buf = append(p.buf[:0], w.Bytes()...)
	p.nbits = w.Len()
	p.valid = true
	a.scratch = a.snap.Entries[:0]
	a.snap.Entries = nil
	bitio.PutWriter(w)
	if a.cfg.SnapshotCorruptProb > 0 && hr.Bool(a.cfg.SnapshotCorruptProb) {
		bit := hr.Intn(p.nbits)
		p.buf[bit/8] ^= 1 << (7 - bit%8)
	}
}

// restart revives host i: warm when its snapshot slot holds a
// checkpoint that decodes and passes admission, cold otherwise — with
// the rejection reason traced when a checkpoint existed but was
// refused. The next crash is scheduled here, so one host never has two
// crash processes in flight.
func (a *Adversary) restart(i int) {
	h := a.hosts[i]
	hr := a.hostRNG[i]
	now := a.k.Now()
	id := h.State().ID
	p := &a.persist[i]
	if !p.valid {
		h.Restart(nil, false)
		a.tr.Record(trace.Event{T: now, Kind: trace.RestartCold, Client: id})
	} else {
		p.valid = false
		snap, err := DecodeSnapshot(p.buf, p.nbits, a.cacheCap)
		if err == nil {
			err = a.cfg.Admit(snap, now)
		}
		if err != nil {
			a.tr.Record(trace.Event{T: now, Kind: trace.SnapshotReject,
				Client: id, A: int64(RejectReason(err))})
			h.Restart(nil, true)
			a.tr.Record(trace.Event{T: now, Kind: trace.RestartCold, Client: id, A: 1})
		} else {
			h.Restart(snap, false)
			a.tr.Record(trace.Event{T: now, Kind: trace.RestartWarm,
				Client: id, A: int64(len(snap.Entries))})
		}
	}
	a.k.Schedule(hr.Exp(a.cfg.CrashMTBF), a.crashFns[i])
}
