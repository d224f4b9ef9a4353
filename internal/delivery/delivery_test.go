package delivery

import (
	"strings"
	"testing"

	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/trace"
)

// validBase is an armed configuration every field of which passes
// validation with a recovery path at the default horizon.
func validBase() Config { return Severity(2) }

const horizon = 100000.0

func TestValidateAcceptsSeverityLadder(t *testing.T) {
	for _, level := range []float64{0, 0.5, 1, 2, 3, 4} {
		c := Severity(level)
		if err := c.Validate(true, horizon); err != nil {
			t.Fatalf("Severity(%v): %v", level, err)
		}
		if (level > 0) != c.Enabled() {
			t.Fatalf("Severity(%v).Enabled() = %v", level, c.Enabled())
		}
	}
	if Severity(0) != (Config{}) {
		t.Fatal("Severity(0) is not the zero (disabled) config")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		recovery bool
		wantSub  string
	}{
		{"negative-jitter", func(c *Config) { c.Down.Jitter = -1 }, true, "Delivery.Down.Jitter"},
		{"reorder-prob-above-one", func(c *Config) { c.Up.ReorderProb = 1.5 }, true, "Delivery.Up.ReorderProb"},
		{"reorder-delay-without-prob", func(c *Config) { c.Down.ReorderProb = 0 }, true, "Delivery.Down.ReorderDelay"},
		{"reorder-prob-without-delay", func(c *Config) { c.Down.ReorderDelay = 0 }, true, "Delivery.Down.ReorderDelay"},
		{"negative-dup-prob", func(c *Config) { c.Up.DupProb = -0.1 }, true, "Delivery.Up.DupProb"},
		{"negative-mtbf", func(c *Config) { c.PartitionMTBF = -5 }, true, "Delivery.PartitionMTBF"},
		{"mtbf-without-mttr", func(c *Config) { c.PartitionMTTR = 0 }, true, "Delivery.PartitionMTTR"},
		{"mttr-without-mtbf", func(c *Config) { c.PartitionMTBF = 0 }, true, "Delivery.PartitionMTTR"},
		{"negative-skew", func(c *Config) { c.SkewMax = -1 }, true, "Delivery.SkewMax"},
		{"negative-drift", func(c *Config) { c.DriftMax = -1e-6 }, true, "Delivery.DriftMax"},
		{"skew-without-epsilon", func(c *Config) { c.Epsilon = 0 }, true, "Delivery.Epsilon"},
		{"epsilon-below-worst-error", func(c *Config) { c.Epsilon = c.SkewMax / 2 }, true, "Delivery.Epsilon"},
		{"enabled-without-recovery", func(c *Config) {}, false, "recovery path"},
	}
	for _, tc := range cases {
		c := validBase()
		tc.mutate(&c)
		err := c.Validate(tc.recovery, horizon)
		if err == nil {
			t.Fatalf("%s: validation accepted a bad config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestDisabledConfigValidatesWithoutRecovery(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if err := c.Validate(false, horizon); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if New(sim.New(), c, rng.New(1), nil) != nil {
		t.Fatal("New built an adversary for a disabled config")
	}
}

func TestClockRead(t *testing.T) {
	c := Clock{Offset: 2, Drift: 1e-3}
	if got := c.Read(1000); got != 1003 {
		t.Fatalf("Read(1000) = %v, want 1003", got)
	}
	if got := (Clock{}).Read(1234.5); got != 1234.5 {
		t.Fatalf("zero clock perturbed time: %v", got)
	}
}

// deliverAll drives n deliveries through a fresh link seeded with seed
// and returns the kernel times at which the callbacks ran.
func deliverAll(seed uint64, n int) []float64 {
	k := sim.New()
	l := &Link{k: k, p: LinkParams{Jitter: 2, ReorderProb: 0.3, ReorderDelay: 25, DupProb: 0.2}, src: rng.New(seed)}
	var times []float64
	for i := 0; i < n; i++ {
		k.Schedule(float64(i), func() { l.Deliver(sim.Func(func() { times = append(times, float64(k.Now())) })) })
	}
	k.Run(1e6)
	return times
}

func TestLinkDeliverDeterministic(t *testing.T) {
	a := deliverAll(42, 200)
	b := deliverAll(42, 200)
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d callbacks", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at t=%v vs t=%v: same seed diverged", i, a[i], b[i])
		}
	}
	if len(a) <= 200 {
		t.Fatalf("DupProb=0.2 injected no duplicates over 200 deliveries (%d callbacks)", len(a))
	}
}

func TestLinkCountsAndPartitionDrop(t *testing.T) {
	k := sim.New()
	l := &Link{k: k, p: LinkParams{Jitter: 1, ReorderProb: 1, ReorderDelay: 10, DupProb: 1}, src: rng.New(7)}
	fired := 0
	for i := 0; i < 50; i++ {
		l.Deliver(sim.Func(func() { fired++ }))
	}
	k.Run(1e6)
	if fired != 100 {
		t.Fatalf("DupProb=1 delivered %d callbacks for 50 messages, want 100", fired)
	}
	if l.Dups != 50 || l.Reordered != 50 || l.Delayed != 50 {
		t.Fatalf("counters dups=%d reordered=%d delayed=%d, want 50/50/50", l.Dups, l.Reordered, l.Delayed)
	}
	l.blocked = true
	l.Deliver(sim.Func(func() { t.Fatal("partitioned link delivered") }))
	if l.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", l.PartitionDrops)
	}
	l.ResetStats()
	if l.Dups != 0 || l.Reordered != 0 || l.Delayed != 0 || l.PartitionDrops != 0 {
		t.Fatal("ResetStats left counters standing")
	}
}

func TestPartitionCycleTracedAndHealed(t *testing.T) {
	k := sim.New()
	tr := trace.New(4096)
	cfg := Config{PartitionMTBF: 200, PartitionMTTR: 50}
	adv := New(k, cfg, rng.New(5), tr)
	if adv == nil || adv.Down == nil || adv.Up == nil {
		t.Fatal("partition-only config must still build both link gates")
	}
	dropped, delivered := 0, 0
	var tick func()
	tick = func() {
		before := adv.Down.PartitionDrops + adv.Up.PartitionDrops
		adv.Down.Deliver(sim.Func(func() { delivered++ }))
		adv.Up.Deliver(sim.Func(func() { delivered++ }))
		if adv.Down.PartitionDrops+adv.Up.PartitionDrops > before {
			dropped++
		}
		if k.Now() < 20000 {
			k.Schedule(7, tick)
		}
	}
	adv.Start()
	k.Schedule(1, tick)
	k.Run(30000)
	starts, heals := tr.Count(trace.PartitionStart), tr.Count(trace.PartitionHeal)
	if starts == 0 {
		t.Fatal("no partitions over 150 expected MTBFs")
	}
	if heals < starts-1 || heals > starts {
		t.Fatalf("%d starts vs %d heals: partitions must heal on schedule", starts, heals)
	}
	if int64(starts) != adv.Partitions {
		t.Fatalf("traced %d starts, counted %d", starts, adv.Partitions)
	}
	if dropped == 0 {
		t.Fatal("no messages destroyed across partitions")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered outside partitions")
	}
	if adv.inPart {
		// Possible but vanishingly unlikely to end mid-partition with
		// MTTR 50 and 10000 s of post-traffic quiet; treat as a bug.
		t.Fatal("run ended inside a partition that never healed")
	}
}

func TestClockForSkipsDrawsWhenDisabled(t *testing.T) {
	k := sim.New()
	// Skew armed: clocks vary.
	adv := New(k, Config{SkewMax: 1, DriftMax: 1e-5, Epsilon: 4}, rng.New(9), nil)
	a, b := adv.ClockFor(), adv.ClockFor()
	if a == b {
		t.Fatalf("two clock draws identical: %+v", a)
	}
	if a.Offset < -1 || a.Offset > 1 {
		t.Fatalf("offset %v outside [-1, 1]", a.Offset)
	}
	// Skew disabled (jitter-only config): every clock is perfect.
	adv2 := New(k, Config{Down: LinkParams{Jitter: 1}}, rng.New(9), nil)
	if c := adv2.ClockFor(); c != (Clock{}) {
		t.Fatalf("disabled skew drew a clock: %+v", c)
	}
}

// The armed delivery hook must stay allocation-free: it runs once per
// simulated message. Postponed deliveries ride the link's carrier pool
// and the kernel's event freelist once both are warm.
func TestDeliverAllocFree(t *testing.T) {
	k := sim.New()
	l := &Link{k: k, p: LinkParams{Jitter: 0.5}, src: rng.New(11)}
	ev := sim.Func(func() {})
	for i := 0; i < 64; i++ {
		l.Deliver(ev)
	}
	for k.Step() {
	}
	if avg := testing.AllocsPerRun(1000, func() {
		l.Deliver(ev)
		k.Step()
	}); avg != 0 {
		t.Fatalf("armed Deliver allocates %v per message, want 0", avg)
	}
}

// firings is an Event that records the kernel time of each firing.
type firings struct {
	k     *sim.Kernel
	times []float64
}

func (f *firings) Fire() { f.times = append(f.times, f.k.Now()) }

// TestCarriersFireEachDeliveryTwice pins the carrier pool under DupProb 1
// and jitter: every Deliver fires its event exactly twice, at the two
// jitter draws a reference stream with the same seed makes, and every
// carrier is back in the pool once the calendar drains. A partitioned
// link schedules nothing and leaves the pool as it was.
func TestCarriersFireEachDeliveryTwice(t *testing.T) {
	const jitter, n = 3.0, 40
	k := sim.New()
	l := &Link{k: k, p: LinkParams{Jitter: jitter, DupProb: 1}, src: rng.New(21)}
	ref := rng.New(21)
	evs := make([]firings, n)
	want := make([][2]float64, n)
	for i := range evs {
		evs[i].k = k
		at := float64(i)
		d := ref.Uniform(0, jitter)
		d2 := ref.Uniform(0, jitter) // DupProb 1 draws no coin
		want[i] = [2]float64{at + d, at + d2}
		k.At(at, func() { l.Deliver(&evs[i]) })
	}
	k.Run(sim.EndOfTime)
	for i, ev := range evs {
		if len(ev.times) != 2 {
			t.Fatalf("delivery %d fired %d times, want 2", i, len(ev.times))
		}
		lo, hi := min(want[i][0], want[i][1]), max(want[i][0], want[i][1])
		if ev.times[0] != lo || ev.times[1] != hi {
			t.Fatalf("delivery %d fired at %v, want %v and %v", i, ev.times, lo, hi)
		}
	}
	if l.Delayed != n || l.Dups != n {
		t.Fatalf("delayed %d, dups %d, want %d each", l.Delayed, l.Dups, n)
	}
	pooled := len(l.pool)
	if pooled == 0 || pooled > 2*n {
		t.Fatalf("%d carriers pooled after the drain, want 1..%d", pooled, 2*n)
	}
	for _, c := range l.pool {
		if c.ev != nil {
			t.Fatal("a pooled carrier still holds its event")
		}
	}

	l.blocked = true
	ev := firings{k: k}
	l.Deliver(&ev)
	if k.Pending() != 0 || len(l.pool) != pooled || len(ev.times) != 0 {
		t.Fatalf("partitioned link: %d events pending, pool %d (was %d), %d firings",
			k.Pending(), len(l.pool), pooled, len(ev.times))
	}
}
