package engine

import (
	"strings"
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/overload"
)

// saturate turns short() into an overloaded cell: think times far below
// what the shared uplink can serve (offered load roughly 3x capacity),
// with disconnection kept rare so the query stream dominates.
func saturate(c *Config) {
	c.MeanThink = 5
	c.ProbDisc = 0.05
	c.MeanDisc = 200
}

// guardrails is the full degradation layer the saturation tests run
// under: tight bounded queues, a deadline of four broadcast periods,
// and a small coalescing pending table.
func guardrails(c *Config) {
	c.Overload = overload.Config{
		UpQueueCap:       20,
		DownQueueCap:     20,
		QueryDeadline:    4 * c.Period,
		ServerPendingCap: 16,
		Coalesce:         true,
	}
}

// checkAccounting asserts two per-client bounds on top of the identities
// Run's audit already enforced (every issued query answered, timed out,
// shed or still open; queue peaks within their caps; the churn
// reconciliations): at most one open query and one crashed process per
// client.
func checkAccounting(t *testing.T, scheme string, r *Results) {
	t.Helper()
	if r.QueriesInFlight < 0 || r.QueriesInFlight > int64(r.Config.Clients) {
		t.Fatalf("%s: %d queries in flight with %d clients", scheme, r.QueriesInFlight, r.Config.Clients)
	}
	if r.CrashedAtEnd < 0 || r.CrashedAtEnd > int64(r.Config.Clients) {
		t.Fatalf("%s: %d clients down at end with %d clients", scheme, r.CrashedAtEnd, r.Config.Clients)
	}
}

func TestOverloadFreeResultsUnchanged(t *testing.T) {
	// Frozen seed-1 results, identical to TestFaultFreeResultsUnchanged's
	// goldens: the overload layer, when disabled, must consume zero
	// randomness and schedule zero events. A change here means the
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
		// With the layer off, every degradation counter must be exactly
		// zero and the identity must collapse to issued == answered +
		// in_flight.
		if r.QueriesTimedOut != 0 || r.QueriesShed != 0 || r.UpShedMsgs != 0 ||
			r.DownShedMsgs != 0 || r.CoalescedFetches != 0 || r.BusyReplies != 0 ||
			r.RepliesShed != 0 || r.UpPeakQueue != 0 || r.DownPeakQueue != 0 {
			t.Fatalf("%s: disabled overload layer produced degradation activity: %+v", g.scheme, r)
		}
		checkAccounting(t, g.scheme, r)
	}
}

func TestOverloadConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"upcap-negative", func(c *Config) { c.Overload.UpQueueCap = -1 }, "Overload.UpQueueCap"},
		{"downcap-negative", func(c *Config) { c.Overload.DownQueueCap = -2 }, "Overload.DownQueueCap"},
		{"pending-negative", func(c *Config) { c.Overload.ServerPendingCap = -1 }, "Overload.ServerPendingCap"},
		{"deadline-negative", func(c *Config) { c.Overload.QueryDeadline = -5 }, "Overload.QueryDeadline"},
		{"cap-without-recovery", func(c *Config) { c.Overload.UpQueueCap = 10 }, "recover"},
		{"pending-without-recovery", func(c *Config) { c.Overload.ServerPendingCap = 8 }, "recover"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("%s: bad overload config accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
		if _, err := Run(c); err == nil {
			t.Fatalf("%s: bad overload config ran", tc.name)
		}
	}
	// Caps with a deadline, caps with retries, and coalescing alone are
	// all valid.
	c := Default()
	c.Overload = overload.Config{UpQueueCap: 10, QueryDeadline: 80}
	if err := c.Validate(); err != nil {
		t.Fatalf("caps+deadline rejected: %v", err)
	}
	c = Default()
	c.Overload = overload.Config{DownQueueCap: 10, ServerPendingCap: 8}
	c.Faults.Retry = chaosRetry()
	if err := c.Validate(); err != nil {
		t.Fatalf("caps+retry rejected: %v", err)
	}
	c = Default()
	c.Overload = overload.Config{Coalesce: true}
	if err := c.Validate(); err != nil {
		t.Fatalf("coalesce-only rejected: %v", err)
	}
}

func TestOverloadSaturationProperty(t *testing.T) {
	// Offered load ~3x uplink capacity with the full degradation layer:
	// every scheme must keep serving (no collapse, no deadlock), stay
	// consistent, honor the queue bounds exactly, and balance the books.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		saturate(&c)
		guardrails(&c)
		r := mustRun(t, c)
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under overload; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: collapsed under overload (nothing answered)", scheme)
		}
		if r.QueriesTimedOut+r.QueriesShed == 0 && r.UpShedMsgs+r.DownShedMsgs == 0 {
			t.Fatalf("%s: saturation never engaged the degradation layer", scheme)
		}
		checkAccounting(t, scheme, r)
	}
}

func TestQueryDeadlineAloneProperty(t *testing.T) {
	// Deadline without any bounded queue: nothing is ever shed, so the
	// identity must balance with timeouts and in-flight only, and every
	// abandoned query must actually be counted.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		saturate(&c)
		c.Overload = overload.Config{QueryDeadline: 2 * c.Period}
		r := mustRun(t, c)
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads with deadlines; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesTimedOut == 0 {
			t.Fatalf("%s: saturated run with a 2-period deadline never timed out", scheme)
		}
		if r.QueriesShed != 0 || r.UpShedMsgs != 0 || r.DownShedMsgs != 0 {
			t.Fatalf("%s: unbounded queues shed messages (%d/%d/%d)",
				scheme, r.QueriesShed, r.UpShedMsgs, r.DownShedMsgs)
		}
		checkAccounting(t, scheme, r)
	}
}

func TestCoalescingSavesDownlink(t *testing.T) {
	// Hot-spot saturation floods the server with fetches for the same few
	// items. With coalescing the storm costs O(distinct items) downlink
	// bits; without it, O(requests). Compare the two directly.
	base := short()
	base.Scheme = "aaw"
	saturate(&base)
	hotSpot(&base)
	base.Overload = overload.Config{QueryDeadline: 4 * base.Period}

	plain := mustRun(t, base)
	co := base
	co.Overload.Coalesce = true
	merged := mustRun(t, co)

	if merged.CoalescedFetches == 0 {
		t.Fatal("hot-spot storm never coalesced a fetch")
	}
	if merged.DownDataBits >= plain.DownDataBits {
		t.Fatalf("coalescing did not reduce downlink data traffic: %g >= %g",
			merged.DownDataBits, plain.DownDataBits)
	}
	if merged.ConsistencyViolations != 0 {
		t.Fatalf("coalescing introduced %d stale reads; first: %v",
			merged.ConsistencyViolations, merged.FirstViolation)
	}
	checkAccounting(t, "aaw-coalesce", merged)
}

func TestServerAdmissionControl(t *testing.T) {
	// A tiny pending table under hot-spot saturation must reject fetches
	// with busy replies, and clients must hear (at least the non-shed
	// subset of) them.
	c := short()
	c.Scheme = "aaw"
	saturate(&c)
	hotSpot(&c)
	c.Overload = overload.Config{ServerPendingCap: 2, QueryDeadline: 4 * c.Period}
	r := mustRun(t, c)
	if r.BusyReplies == 0 {
		t.Fatal("pending cap 2 under a hot-spot storm never replied busy")
	}
	if r.BusyHeard > r.BusyReplies {
		t.Fatalf("clients heard %d busy replies, server only sent %d", r.BusyHeard, r.BusyReplies)
	}
	if r.ConsistencyViolations != 0 {
		t.Fatalf("admission control introduced %d stale reads; first: %v",
			r.ConsistencyViolations, r.FirstViolation)
	}
	checkAccounting(t, "aaw-admission", r)
}

func TestChaosOverloadProperty(t *testing.T) {
	// Compound chaos (bursty loss both directions, server crashes,
	// retries) stacked on top of saturation and the full degradation
	// layer: the strongest robustness property in the suite. Every scheme
	// must stay consistent and balance the accounting identity exactly.
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		saturate(&c)
		guardrails(&c)
		c.Faults.DownLoss = faults.GEParams{
			PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1,
		}
		c.Faults.UpLoss = faults.GEParams{
			PGoodBad: 0.05, PBadGood: 0.25, LossBad: 0.4, CorruptBad: 0.1,
		}
		c.Faults.CrashMTBF = 2500
		c.Faults.CrashMTTR = 100
		c.Faults.Retry = chaosRetry()
		r := mustRun(t, c)
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under chaos+overload; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked under chaos+overload", scheme)
		}
		checkAccounting(t, scheme, r)
	}
}
