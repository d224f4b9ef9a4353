package engine

import (
	"bytes"
	"strings"
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/workload"
)

// allSchemes is the full method set every fault-robustness property must
// hold for.
var allSchemes = []string{"ts", "ts-check", "at", "bs", "afw", "aaw", "sig"}

// chaosRetry is the validated timeout/backoff discipline used across the
// fault tests (and mirrored by exp.ChaosFaults).
func chaosRetry() faults.RetryPolicy {
	return faults.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6}
}

// hotSpot concentrates 90% of queries and updates on items 0..99 with a
// hot update stream, so that history lost in a server outage is very
// likely to cover items clients still hold and re-query — the workload
// with real statistical power against a broken recovery path.
func hotSpot(c *Config) {
	wl := workload.HotCold(c.DBSize)
	hot := workload.HotColdAccess{N: c.DBSize, HotLo: 0, HotHi: 99, HotProb: 0.9}
	wl.Query = hot
	wl.Update = hot
	c.Workload = wl
	c.MeanUpdate = 20
}

func TestBurstyReportLossProperty(t *testing.T) {
	// Bursty downlink loss and corruption alone: every scheme must degrade
	// gracefully — reports vanish or arrive undecodable, never half-applied.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		c.Faults.DownLoss = faults.GEParams{
			PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1,
		}
		r := mustRun(t, c)
		if r.ReportsLost == 0 {
			t.Fatalf("%s: burst model never lost a report", scheme)
		}
		if r.ReportsCorrupted == 0 {
			t.Fatalf("%s: burst model never corrupted a report", scheme)
		}
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under bursty loss; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked under bursty loss", scheme)
		}
	}
}

func TestServerCrashProperty(t *testing.T) {
	// Server crash/restart alone, under the hot-spot workload: the lost
	// history window covers items clients re-query immediately, so a scheme
	// trusting a post-restart report across its gap would serve stale data.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		c.SimTime = 12000
		hotSpot(&c)
		c.Faults.CrashMTBF = 2000
		c.Faults.CrashMTTR = 120
		c.Faults.Retry = chaosRetry() // fetches must survive a dead server
		r := mustRun(t, c)
		if r.ServerCrashes == 0 || r.ServerDowntime <= 0 {
			t.Fatalf("%s: no crashes injected (%d, %v)", scheme, r.ServerCrashes, r.ServerDowntime)
		}
		if r.MeanRecoveryLatency <= 0 {
			t.Fatalf("%s: recovery latency not observed", scheme)
		}
		if r.EpochDegrades == 0 {
			t.Fatalf("%s: no client ever honored a recovery marker", scheme)
		}
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads across server crashes; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked across server crashes", scheme)
		}
	}
}

func TestUplinkTimeoutBackoffProperty(t *testing.T) {
	// Bursty uplink loss alone: swallowed fetches and control messages must
	// be retried (timeout/backoff), never waited on forever.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		c.Faults.UpLoss = faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5}
		c.Faults.Retry = chaosRetry()
		r := mustRun(t, c)
		if r.UplinkMsgsLost == 0 {
			t.Fatalf("%s: uplink model never lost a message", scheme)
		}
		if r.Retries == 0 {
			t.Fatalf("%s: lost uplink messages but no retries", scheme)
		}
		if r.RetriesPerQuery <= 0 {
			t.Fatalf("%s: retries/query = %v", scheme, r.RetriesPerQuery)
		}
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under uplink loss; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked under uplink loss", scheme)
		}
	}
}

func TestCompoundChaosStarvedUplink(t *testing.T) {
	// Everything at once: bursty loss and corruption on both links, server
	// crashes, and a starved uplink stretching every exchange — the
	// acceptance bar is still zero stale reads for every scheme.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		c.UplinkBps = 1000
		c.Faults = faults.Config{
			DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1},
			UpLoss:    faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.3},
			CrashMTBF: 2000,
			CrashMTTR: 120,
			Retry:     chaosRetry(),
		}
		r := mustRun(t, c)
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under compound chaos; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked under compound chaos", scheme)
		}
	}
}

func TestLegacyLossIsDegenerateGE(t *testing.T) {
	// The retired report_loss_prob knob survives as a manifest key only.
	// A file carrying it replays with Faults.DownLoss = Bernoulli(p), the
	// chain it always ran as, so the replay matches draw for draw.
	c := short()
	c.Faults.DownLoss = faults.Bernoulli(0.2)
	m := NewManifest(mustRun(t, c))
	m.Faults.DownLoss = faults.GEParams{}
	m.ReportLossProb = 0.2
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	legacy, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := legacy.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Faults.DownLoss != faults.Bernoulli(0.2) {
		t.Fatalf("report_loss_prob 0.2 replays as DownLoss %+v", rc.Faults.DownLoss)
	}
	if err := legacy.VerifyReplay(mustRun(t, rc)); err != nil {
		t.Fatal(err)
	}
	legacy.Faults.DownLoss = faults.Bernoulli(0.1)
	if _, err := legacy.EngineConfig(); err == nil {
		t.Fatal("manifest with both loss models accepted")
	}
}

func TestFaultFreeResultsUnchanged(t *testing.T) {
	// Frozen seed-1 results: the fault layer, when disabled, must consume
	// zero randomness and schedule zero events, so these exact numbers are
	// bit-identical to pre-fault-layer builds. A change here means the
	// disabled path is no longer free.
	golden := []struct {
		scheme  string
		queries int64
		events  uint64
		hits    int64
		upBits  float64
	}{
		{"aaw", 732, 11527, 32, 2784},
		{"ts-check", 732, 11565, 32, 17328},
		{"bs", 656, 10533, 26, 0},
		{"sig", 720, 11354, 29, 0},
	}
	for _, g := range golden {
		c := short()
		c.Scheme = g.scheme
		r := mustRun(t, c)
		if r.QueriesAnswered != g.queries || r.Events != g.events ||
			r.CacheHits != g.hits || r.UplinkValidationBits != g.upBits {
			t.Fatalf("%s: seeded results moved: queries=%d events=%d hits=%d upbits=%g, want %+v",
				g.scheme, r.QueriesAnswered, r.Events, r.CacheHits, r.UplinkValidationBits, g)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"downloss-range", func(c *Config) { c.Faults.DownLoss.LossBad = 1.5 }, "Faults.DownLoss.LossBad"},
		{"downloss-absorbing", func(c *Config) { c.Faults.DownLoss.PGoodBad = 0.1 }, "Faults.DownLoss.PBadGood"},
		{"uploss-range", func(c *Config) { c.Faults.UpLoss.CorruptGood = -0.1 }, "Faults.UpLoss.CorruptGood"},
		{"mtbf-negative", func(c *Config) { c.Faults.CrashMTBF = -1 }, "Faults.CrashMTBF"},
		{"mttr-missing", func(c *Config) { c.Faults.CrashMTBF = 100 }, "Faults.CrashMTTR"},
		{"mttr-orphan", func(c *Config) { c.Faults.CrashMTTR = 5 }, "Faults.CrashMTTR"},
		{"retry-negative", func(c *Config) { c.Faults.Retry.Timeout = -1 }, "Faults.Retry.Timeout"},
		{"retry-orphan-fields", func(c *Config) { c.Faults.Retry.Backoff = 2 }, "Faults.Retry.Timeout"},
		{"retry-backoff", func(c *Config) { c.Faults.Retry = faults.RetryPolicy{Timeout: 10, Backoff: 0.5} }, "Faults.Retry.Backoff"},
		{"retry-maxdelay", func(c *Config) { c.Faults.Retry = faults.RetryPolicy{Timeout: 10, Backoff: 2, MaxDelay: 5} }, "Faults.Retry.MaxDelay"},
		{"retry-jitter", func(c *Config) { c.Faults.Retry = faults.RetryPolicy{Timeout: 10, Backoff: 2, Jitter: 1.5} }, "Faults.Retry.Jitter"},
		{"retry-attempts", func(c *Config) { c.Faults.Retry = faults.RetryPolicy{Timeout: 10, Backoff: 2, MaxAttempts: -1} }, "Faults.Retry.MaxAttempts"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("%s: bad fault config accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
		if _, err := Run(c); err == nil {
			t.Fatalf("%s: bad fault config ran", tc.name)
		}
	}
	// A fully loaded valid fault config passes.
	c := Default()
	c.Faults = faults.Config{
		DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1},
		UpLoss:    faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.3},
		CrashMTBF: 3000,
		CrashMTTR: 120,
		Retry:     chaosRetry(),
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}
}
