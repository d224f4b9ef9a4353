package engine

import (
	"strings"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/trace"
)

func TestChurnFreeResultsUnchanged(t *testing.T) {
	// Frozen seed-1 results, identical to TestDeliveryFreeResultsUnchanged's
	// goldens: the churn layer, when disabled, must consume zero
	// randomness and schedule zero events — New returns nil, the engine
	// never splits its stream differently, and the offline guards on the
	// client hot paths change no outcome. A change here means the
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
		if r.Storms != 0 || r.StormDisconnects != 0 || r.ClientCrashes != 0 ||
			r.RestartsWarm != 0 || r.RestartsCold != 0 || r.SnapshotRejects != 0 ||
			r.CrashedAtEnd != 0 || r.PacedResumes != 0 || r.OfflineDrops != 0 {
			t.Fatalf("%s: churn counters nonzero with the layer disabled: %+v", g.scheme, r)
		}
		if r.SoloDisconnects != r.Disconnections {
			t.Fatalf("%s: %d solo disconnects vs %d total with churn off",
				g.scheme, r.SoloDisconnects, r.Disconnections)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"armed-without-recovery", func(c *Config) {
			c.Churn = churn.Severity(1)
		}, "recovery path"},
		{"ttl-beyond-window", func(c *Config) {
			c.Churn = churn.Severity(1)
			c.Faults.Retry = chaosRetry()
			// w·L = 10 × 20 s = 200 s in the default config.
			c.Churn.SnapshotTTL = 201
		}, "Churn.SnapshotTTL"},
		{"storm-without-mttr", func(c *Config) {
			c.Churn = churn.Severity(1)
			c.Faults.Retry = chaosRetry()
			c.Churn.StormMTTR = 0
		}, "Churn.StormMTTR"},
	}
	for _, tc := range cases {
		c := short()
		tc.mutate(&c)
		_, err := Run(c)
		if err == nil {
			t.Fatalf("%s: engine accepted a bad churn config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.wantSub)
		}
	}
	// A query deadline is an equally valid recovery path as a retry
	// policy: the churn layer must arm with either.
	c := short()
	c.Churn = churn.Severity(1)
	c.Overload.QueryDeadline = 4 * c.Period
	mustRun(t, c)
}

// TestChurnZeroStaleReads is the engine-level core of the PR's
// invariant: under mass-disconnect storms, flash-crowd reconnection,
// crash/restart with faulted snapshots and paced resync, no scheme ever
// serves a stale read — a warm-restored cache revalidates through the
// same window logic as a long voluntary disconnection, and anything
// untrustworthy is verifiably rejected to a cold start.
func TestChurnZeroStaleReads(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw", "sig"} {
		for _, level := range []float64{1, 4} {
			c := short()
			c.Scheme = scheme
			c.Churn = churn.Severity(level)
			c.Faults.Retry = chaosRetry()
			r := mustRun(t, c)
			if r.ConsistencyViolations != 0 {
				t.Fatalf("%s level %v: %d stale read(s); first: %v",
					scheme, level, r.ConsistencyViolations, r.FirstViolation)
			}
			checkAccounting(t, scheme, r)
			if r.QueriesAnswered == 0 {
				t.Fatalf("%s level %v: collapsed (nothing answered)", scheme, level)
			}
			if level >= 4 && (r.Storms == 0 || r.ClientCrashes == 0) {
				t.Fatalf("%s level %v: adversary idle (storms=%d crashes=%d)",
					scheme, level, r.Storms, r.ClientCrashes)
			}
		}
	}
}

// TestChurnForcedRejectionStillSafe pins the rejection path end to end:
// with every persisted snapshot corrupted, no restart is ever warm, every
// salvage attempt lands as a verified rejection, and the run still serves
// zero stale reads with the identities intact.
func TestChurnForcedRejectionStillSafe(t *testing.T) {
	for _, scheme := range []string{"ts", "aaw", "sig"} {
		c := short()
		c.Scheme = scheme
		c.Churn = churn.Severity(2)
		c.Churn.SnapshotCorruptProb = 1
		c.Churn.SnapshotStaleProb = 0
		c.Faults.Retry = chaosRetry()
		r := mustRun(t, c)
		if r.RestartsWarm != 0 {
			t.Fatalf("%s: %d warm restarts with every snapshot corrupted", scheme, r.RestartsWarm)
		}
		if r.SnapshotRejects == 0 {
			t.Fatalf("%s: no snapshot rejections with SnapshotCorruptProb=1 over %d crashes",
				scheme, r.ClientCrashes)
		}
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale read(s) on the forced-rejection path; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		checkAccounting(t, scheme, r)
	}
}

// TestChurnWarmRestartsHappen proves the other arm: with clean snapshots
// and a TTL at the window, warm restarts actually occur, so the
// rejection tests above are not passing vacuously.
func TestChurnWarmRestartsHappen(t *testing.T) {
	c := short()
	c.Scheme = "ts"
	c.Churn = churn.Severity(2)
	c.Churn.SnapshotCorruptProb = 0
	c.Churn.SnapshotStaleProb = 0
	c.Churn.SnapshotTTL = 200
	c.Faults.Retry = chaosRetry()
	r := mustRun(t, c)
	if r.RestartsWarm == 0 {
		t.Fatalf("no warm restarts over %d crashes with clean snapshots", r.ClientCrashes)
	}
	if r.ConsistencyViolations != 0 {
		t.Fatalf("%d stale read(s) after warm restores; first: %v",
			r.ConsistencyViolations, r.FirstViolation)
	}
	checkAccounting(t, "ts", r)
}

// TestChurnTraceEvents pins the trace vocabulary: an armed run emits
// storm brackets and crash/restart events, and each restart event's
// verdict matches a client-side counter.
func TestChurnTraceEvents(t *testing.T) {
	c := short()
	c.Scheme = "ts"
	c.Churn = churn.Severity(3)
	c.Faults.Retry = chaosRetry()
	c.Trace = trace.New(1 << 18)
	r := mustRun(t, c)
	var starts, ends, crashes, warms, colds, rejects int64
	for _, e := range c.Trace.Events() {
		switch e.Kind {
		case trace.StormStart:
			starts++
		case trace.StormEnd:
			ends++
		case trace.ClientCrash:
			crashes++
		case trace.RestartWarm:
			warms++
		case trace.RestartCold:
			colds++
		case trace.SnapshotReject:
			rejects++
			if e.A < churn.RejectCorrupt || e.A > churn.RejectInvalid {
				t.Fatalf("snapshot-reject reason %d out of range", e.A)
			}
		}
	}
	if starts != r.Storms || ends < starts-1 || ends > starts {
		t.Fatalf("trace storms %d..%d vs results %d", ends, starts, r.Storms)
	}
	if crashes != r.ClientCrashes || warms != r.RestartsWarm ||
		colds != r.RestartsCold || rejects != r.SnapshotRejects {
		t.Fatalf("trace crash/warm/cold/reject = %d/%d/%d/%d, results %d/%d/%d/%d",
			crashes, warms, colds, rejects,
			r.ClientCrashes, r.RestartsWarm, r.RestartsCold, r.SnapshotRejects)
	}
}

func TestManifestCarriesChurn(t *testing.T) {
	c := short()
	c.Scheme = "bs"
	c.Churn = churn.Severity(2)
	c.Faults.Retry = chaosRetry()
	r := mustRun(t, c)
	m := NewManifest(r)
	if m.SchemaVersion != ManifestSchemaVersion {
		t.Fatalf("manifest schema %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	rc, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Churn != c.Churn {
		t.Fatalf("replayed churn config %+v, want %+v", rc.Churn, c.Churn)
	}
	r2 := mustRun(t, rc)
	if err := m.VerifyReplay(r2); err != nil {
		t.Fatalf("churn-armed replay diverged: %v", err)
	}
}
