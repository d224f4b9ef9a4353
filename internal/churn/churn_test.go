package churn

import (
	"strings"
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/trace"
)

// windowSec is the default run's invalidation window w·L = 10 × 20 s,
// the ceiling Validate enforces on SnapshotTTL.
const windowSec = 200.0

func validBase() Config { return Severity(2) }

func TestValidateAcceptsSeverityLadder(t *testing.T) {
	for _, level := range []float64{0, 0.5, 1, 2, 3, 4} {
		c := Severity(level)
		if err := c.Validate(true, windowSec); err != nil {
			t.Fatalf("Severity(%v): %v", level, err)
		}
		if (level > 0) != c.Enabled() {
			t.Fatalf("Severity(%v).Enabled() = %v", level, c.Enabled())
		}
	}
	if Severity(0) != (Config{}) {
		t.Fatal("Severity(0) is not the zero (disabled) config")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		recovery bool
		wantSub  string
	}{
		{"negative-storm-mtbf", func(c *Config) { c.StormMTBF = -1 }, true, "Churn.StormMTBF"},
		{"storm-without-mttr", func(c *Config) { c.StormMTTR = 0 }, true, "Churn.StormMTTR"},
		{"mttr-without-storm", func(c *Config) { *c = Config{StormMTTR: 60} }, true, "Churn.StormMTTR"},
		{"storm-frac-zero", func(c *Config) { c.StormFrac = 0 }, true, "Churn.StormFrac"},
		{"storm-frac-above-one", func(c *Config) { c.StormFrac = 1.5 }, true, "Churn.StormFrac"},
		{"frac-without-storm", func(c *Config) { *c = Config{StormFrac: 0.5} }, true, "Churn.StormFrac"},
		{"negative-resync", func(c *Config) { c.ResyncSpread = -1 }, true, "Churn.ResyncSpread"},
		{"resync-without-storm", func(c *Config) { *c = Config{ResyncSpread: 10} }, true, "Churn.ResyncSpread"},
		{"negative-crash-mtbf", func(c *Config) { c.CrashMTBF = -1 }, true, "Churn.CrashMTBF"},
		{"crash-without-mttr", func(c *Config) { c.CrashMTTR = 0 }, true, "Churn.CrashMTTR"},
		{"crash-mttr-without-mtbf", func(c *Config) { *c = Config{CrashMTTR: 30} }, true, "Churn.CrashMTTR"},
		{"warm-prob-above-one", func(c *Config) { c.WarmProb = 1.01 }, true, "Churn.WarmProb"},
		{"warm-without-crash", func(c *Config) { *c = Config{WarmProb: 0.5} }, true, "Churn.WarmProb"},
		{"warm-without-ttl", func(c *Config) { c.SnapshotTTL = 0 }, true, "Churn.SnapshotTTL"},
		{"ttl-without-warm", func(c *Config) { c.WarmProb = 0; c.SnapshotCorruptProb = 0; c.SnapshotStaleProb = 0 }, true, "Churn.SnapshotTTL"},
		{"ttl-beyond-window", func(c *Config) { c.SnapshotTTL = windowSec + 1 }, true, "Churn.SnapshotTTL"},
		{"negative-corrupt-prob", func(c *Config) { c.SnapshotCorruptProb = -0.1 }, true, "Churn.SnapshotCorruptProb"},
		{"corrupt-without-warm", func(c *Config) { c.WarmProb = 0; c.SnapshotTTL = 0; c.SnapshotStaleProb = 0 }, true, "Churn.SnapshotCorruptProb"},
		{"negative-stale-prob", func(c *Config) { c.SnapshotStaleProb = -0.1 }, true, "Churn.SnapshotStaleProb"},
		{"stale-without-warm", func(c *Config) { c.WarmProb = 0; c.SnapshotTTL = 0; c.SnapshotCorruptProb = 0 }, true, "Churn.SnapshotStaleProb"},
		{"enabled-without-recovery", func(c *Config) {}, false, "recovery path"},
	}
	for _, tc := range cases {
		c := validBase()
		tc.mutate(&c)
		err := c.Validate(tc.recovery, windowSec)
		if err == nil {
			t.Fatalf("%s: validation accepted a bad config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.wantSub)
		}
	}
}

// stubHost implements Host over a bare ClientState: it records the
// transitions the adversary drives without any protocol behind them.
type stubHost struct {
	st       core.ClientState
	downs    int
	ups      int
	pacedUps int
	crashes  int
	restarts int
	warm     int
	cold     int
	rejected int
	lastSnap *Snapshot
}

// newStubHost gives the stub a cache over a 64-item space, room for every
// id the tests cache.
func newStubHost(id int32, cap int) *stubHost {
	return &stubHost{st: core.ClientState{ID: id, Cache: cache.New(cap, 64)}}
}

func (h *stubHost) State() *core.ClientState { return &h.st }
func (h *stubHost) StormDown()               { h.downs++ }
func (h *stubHost) StormUp(paced bool) {
	h.ups++
	if paced {
		h.pacedUps++
	}
}
func (h *stubHost) CrashDown() { h.crashes++ }
func (h *stubHost) Restart(snap *Snapshot, rejected bool) {
	h.restarts++
	h.lastSnap = snap
	if snap != nil {
		h.warm++
	} else {
		h.cold++
	}
	if rejected {
		h.rejected++
	}
}

// build wires an adversary over n stub hosts and returns both; the
// tracer keeps every event for assertions.
func build(t *testing.T, cfg Config, n, cacheCap int, seed uint64) (*sim.Kernel, *Adversary, []*stubHost, *trace.Tracer) {
	t.Helper()
	k := sim.New()
	tr := trace.New(1 << 16)
	a := New(k, cfg, rng.New(seed), tr)
	if a == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	stubs := make([]*stubHost, n)
	hosts := make([]Host, n)
	for i := range stubs {
		stubs[i] = newStubHost(int32(i), cacheCap)
		hosts[i] = stubs[i]
	}
	a.Attach(cacheCap, hosts...)
	a.Start()
	return k, a, stubs, tr
}

func TestNewNilWhenDisabled(t *testing.T) {
	k := sim.New()
	if a := New(k, Config{}, rng.New(1), nil); a != nil {
		t.Fatal("New built an adversary from the zero config")
	}
}

func TestStormsForceCohortAndHeal(t *testing.T) {
	cfg := Config{StormMTBF: 500, StormMTTR: 50, StormFrac: 1}
	k, a, stubs, tr := build(t, cfg, 8, 16, 7)
	k.Run(5000)
	if a.Storms == 0 {
		t.Fatal("no storms over 10 MTBFs")
	}
	for i, h := range stubs {
		if h.downs == 0 {
			t.Fatalf("host %d never stormed at StormFrac=1", i)
		}
		// Storms never overlap and pacing is off, so every down heals
		// except possibly the last (storm in progress at horizon).
		if h.ups != h.downs && h.ups != h.downs-1 {
			t.Fatalf("host %d: %d downs vs %d ups", i, h.downs, h.ups)
		}
		if h.pacedUps != 0 {
			t.Fatalf("host %d: %d paced resumes with pacing off", i, h.pacedUps)
		}
	}
	starts, ends := 0, 0
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.StormStart:
			starts++
			if e.A != 8 {
				t.Fatalf("storm cohort %d, want 8 at StormFrac=1", e.A)
			}
		case trace.StormEnd:
			ends++
		}
	}
	if int64(starts) != a.Storms || ends < starts-1 {
		t.Fatalf("trace records %d starts / %d ends, adversary counted %d", starts, ends, a.Storms)
	}
}

func TestResyncPacingSpreadsTheFlashCrowd(t *testing.T) {
	cfg := Config{StormMTBF: 500, StormMTTR: 50, StormFrac: 1, ResyncSpread: 30}
	k, a, stubs, tr := build(t, cfg, 8, 16, 7)
	k.Run(5000)
	paced := 0
	for _, h := range stubs {
		paced += h.pacedUps
	}
	if int64(paced) != a.PacedResumes || paced == 0 {
		t.Fatalf("hosts saw %d paced resumes, adversary counted %d", paced, a.PacedResumes)
	}
	events := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.ResyncPaced {
			events++
			if e.B <= 0 || e.B > int64(cfg.ResyncSpread*1e6) {
				t.Fatalf("paced backoff %d µs outside (0, %v s]", e.B, cfg.ResyncSpread)
			}
		}
	}
	if events < paced {
		t.Fatalf("%d ResyncPaced events for %d paced resumes", events, paced)
	}
}

func TestCrashRestartWarmRestoresTheSnapshot(t *testing.T) {
	cfg := Config{CrashMTBF: 300, CrashMTTR: 30, WarmProb: 1, SnapshotTTL: windowSec}
	k, _, stubs, _ := build(t, cfg, 4, 16, 11)
	for _, h := range stubs {
		h.st.Cache.Put(1, 10, 0)
		h.st.Cache.Put(2, 20, 1)
		h.st.Tlb = 25
	}
	k.Run(3000)
	for i, h := range stubs {
		if h.crashes == 0 {
			t.Fatalf("host %d never crashed over 10 MTBFs", i)
		}
		if h.cold > 0 || h.rejected > 0 {
			t.Fatalf("host %d: %d cold / %d rejected restarts with WarmProb=1, TTL=window and no faults", i, h.cold, h.rejected)
		}
		if h.warm == 0 || h.lastSnap == nil {
			t.Fatalf("host %d: no warm restart", i)
		}
		if len(h.lastSnap.Entries) != 2 || h.lastSnap.Tlb != 25 {
			t.Fatalf("host %d: snapshot %d entries, Tlb %v; want 2 entries, Tlb 25", i, len(h.lastSnap.Entries), h.lastSnap.Tlb)
		}
	}
}

func TestCorruptSnapshotAlwaysRejected(t *testing.T) {
	cfg := Config{CrashMTBF: 300, CrashMTTR: 30, WarmProb: 1,
		SnapshotTTL: windowSec, SnapshotCorruptProb: 1}
	k, _, stubs, tr := build(t, cfg, 4, 16, 13)
	for _, h := range stubs {
		h.st.Cache.Put(1, 10, 0)
	}
	k.Run(3000)
	for i, h := range stubs {
		if h.warm > 0 {
			t.Fatalf("host %d restarted warm from a corrupted snapshot", i)
		}
		if h.restarts > 0 && h.rejected != h.restarts {
			t.Fatalf("host %d: %d restarts but only %d rejections at SnapshotCorruptProb=1", i, h.restarts, h.rejected)
		}
	}
	for _, e := range tr.Events() {
		if e.Kind == trace.SnapshotReject && e.A != RejectCorrupt {
			t.Fatalf("corrupted snapshot rejected with reason %d, want %d", e.A, RejectCorrupt)
		}
	}
}

func TestStaleSnapshotAlwaysRejected(t *testing.T) {
	cfg := Config{CrashMTBF: 300, CrashMTTR: 30, WarmProb: 1,
		SnapshotTTL: 60, SnapshotStaleProb: 1}
	k, _, stubs, tr := build(t, cfg, 4, 16, 17)
	k.Run(3000)
	rejects := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.SnapshotReject {
			rejects++
			if e.A != RejectStale {
				t.Fatalf("backdated snapshot rejected with reason %d, want %d", e.A, RejectStale)
			}
		}
	}
	if rejects == 0 {
		t.Fatal("no rejections at SnapshotStaleProb=1")
	}
	for i, h := range stubs {
		if h.warm > 0 {
			t.Fatalf("host %d restarted warm from a stale snapshot", i)
		}
	}
}

// TestStormTickAllocFree pins the storm hot path: once attached, a tick
// draws membership and forces the cohort down without allocating.
func TestStormTickAllocFree(t *testing.T) {
	cfg := Config{StormMTBF: 500, StormMTTR: 50, StormFrac: 0.5}
	_, a, _, _ := build(t, cfg, 64, 16, 3)
	a.stormTick()
	if avg := testing.AllocsPerRun(100, func() {
		a.stormTick()
	}); avg != 0 {
		t.Fatalf("stormTick allocates %v per storm, want 0", avg)
	}
}

// TestSnapshotEncodeAllocFree pins the persist hot path: after the first
// crash warms the scratch slice, the per-host buffer and the writer
// pool, steady-state snapshots allocate nothing.
func TestSnapshotEncodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so the pooled-writer path allocates")
	}
	cfg := Config{CrashMTBF: 300, CrashMTTR: 30, WarmProb: 1, SnapshotTTL: windowSec}
	_, a, stubs, _ := build(t, cfg, 1, 16, 5)
	for id := int32(0); id < 16; id++ {
		stubs[0].st.Cache.Put(id, float64(id), 0)
	}
	a.snapshot(0)
	if avg := testing.AllocsPerRun(100, func() {
		a.snapshot(0)
	}); avg != 0 {
		t.Fatalf("snapshot encode allocates %v per crash, want 0", avg)
	}
}

// BenchmarkChurnStormTick measures the per-storm membership sweep over a
// full default-sized population; the hotalloc contract pins it at 0
// allocs/op.
func BenchmarkChurnStormTick(b *testing.B) {
	k := sim.New()
	a := New(k, Config{StormMTBF: 500, StormMTTR: 50, StormFrac: 0.5}, rng.New(3), nil)
	hosts := make([]Host, 100)
	for i := range hosts {
		hosts[i] = newStubHost(int32(i), 16)
	}
	a.Attach(16, hosts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.stormTick()
	}
	if testing.AllocsPerRun(100, func() { a.stormTick() }) != 0 {
		b.Fatal("storm tick allocates in steady state")
	}
}
