package engine

import (
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// short returns a config small enough for unit tests but long enough to
// exercise disconnection/reconnection cycles.
func short() Config {
	c := Default()
	c.SimTime = 6000
	c.MeanDisc = 400
	c.ConsistencyCheck = true
	return c
}

func mustRun(t *testing.T, c Config) *Results {
	t.Helper()
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw"} {
		c := short()
		c.Scheme = scheme
		r := mustRun(t, c)
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: no queries answered", scheme)
		}
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads; first: %v", scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.Events == 0 {
			t.Fatalf("%s: no events", scheme)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := short()
	c.Scheme = "aaw"
	a := mustRun(t, c)
	b := mustRun(t, c)
	if a.QueriesAnswered != b.QueriesAnswered ||
		a.UplinkValidationBits != b.UplinkValidationBits ||
		a.Events != b.Events ||
		a.CacheHits != b.CacheHits ||
		a.MeanResponse != b.MeanResponse {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.QueriesAnswered, b.QueriesAnswered)
	}
}

func TestSeedMatters(t *testing.T) {
	c := short()
	a := mustRun(t, c)
	c.Seed = 999
	b := mustRun(t, c)
	if a.Events == b.Events && a.QueriesAnswered == b.QueriesAnswered &&
		a.UplinkValidationBits == b.UplinkValidationBits {
		t.Fatal("different seeds produced identical results")
	}
}

func TestConsistencyAcrossSchemesAndWorkloads(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw"} {
		for _, wl := range []workload.Workload{workload.Uniform(2000), workload.HotCold(2000)} {
			c := short()
			c.Scheme = scheme
			c.DBSize = 2000
			c.Workload = wl
			c.MeanUpdate = 20 // high update pressure
			c.ProbDisc = 0.4
			r := mustRun(t, c)
			if r.ConsistencyViolations != 0 {
				t.Fatalf("%s/%s: %d stale reads; first: %v",
					scheme, wl.Name, r.ConsistencyViolations, r.FirstViolation)
			}
		}
	}
}

func TestDownlinkSaturatedAtDefaults(t *testing.T) {
	c := short()
	r := mustRun(t, c)
	if r.DownUtilization < 0.9 {
		t.Fatalf("downlink utilization %v; Table 1 defaults should saturate it", r.DownUtilization)
	}
	if r.DownUtilization > 1.0001 {
		t.Fatalf("downlink utilization %v > 1", r.DownUtilization)
	}
}

func TestBSCollapsesOnLargeDatabase(t *testing.T) {
	base := short()
	base.SimTime = 20000 // long enough to get past the queue warm-up
	base.DBSize = 80000  // BS report = 160 kbit, 80% of each period
	base.Workload = workload.Uniform(80000)
	base.ConsistencyCheck = false
	var q = map[string]int64{}
	for _, scheme := range []string{"bs", "aaw"} {
		c := base
		c.Scheme = scheme
		q[scheme] = mustRun(t, c).QueriesAnswered
	}
	// The BS report is ~80 kbit every 20 s on a 10 kbit/s downlink: it
	// should lose at least half the throughput against AAW (Figure 5).
	if q["bs"]*2 > q["aaw"] {
		t.Fatalf("bs=%d aaw=%d: BS did not collapse on a large database", q["bs"], q["aaw"])
	}
}

func TestUplinkCostOrdering(t *testing.T) {
	res := map[string]*Results{}
	for _, scheme := range []string{"bs", "ts-check", "afw", "aaw"} {
		c := short()
		c.Scheme = scheme
		res[scheme] = mustRun(t, c)
	}
	if res["bs"].UplinkValidationBits != 0 {
		t.Fatalf("bs validation uplink = %v, want 0", res["bs"].UplinkValidationBits)
	}
	for _, a := range []string{"afw", "aaw"} {
		if res[a].UplinkBitsPerQuery <= 0 {
			t.Fatalf("%s sent no feedback despite disconnections", a)
		}
		// Figure 6's headline: the adaptives' uplink cost is far below
		// the checking scheme's.
		if res[a].UplinkBitsPerQuery*3 > res["ts-check"].UplinkBitsPerQuery {
			t.Fatalf("%s uplink %v not well below ts-check %v",
				a, res[a].UplinkBitsPerQuery, res["ts-check"].UplinkBitsPerQuery)
		}
	}
}

func TestHotColdImprovesHitRatio(t *testing.T) {
	cu := short()
	cu.ConsistencyCheck = false
	uniform := mustRun(t, cu)
	ch := cu
	ch.Workload = workload.HotCold(cu.DBSize)
	hot := mustRun(t, ch)
	if hot.HitRatio < uniform.HitRatio*5 {
		t.Fatalf("hotcold hit ratio %v vs uniform %v: locality not exploited",
			hot.HitRatio, uniform.HitRatio)
	}
	if hot.QueriesAnswered <= uniform.QueriesAnswered {
		t.Fatalf("hotcold throughput %d <= uniform %d", hot.QueriesAnswered, uniform.QueriesAnswered)
	}
}

func TestPlainTSDropsCaches(t *testing.T) {
	c := short()
	c.Scheme = "ts"
	c.MeanDisc = 2000 // far beyond the 200 s window
	c.ProbDisc = 0.3
	r := mustRun(t, c)
	if r.Drops == 0 {
		t.Fatal("plain TS never dropped a cache despite long disconnections")
	}
	// The adaptive scheme under identical conditions salvages instead.
	c.Scheme = "aaw"
	r2 := mustRun(t, c)
	if r2.Salvages == 0 {
		t.Fatal("aaw never salvaged")
	}
	if r2.Drops >= r.Drops {
		t.Fatalf("aaw drops %d not below plain ts drops %d", r2.Drops, r.Drops)
	}
}

func TestReportsPunctual(t *testing.T) {
	c := short()
	c.Scheme = "bs" // the largest reports
	r := mustRun(t, c)
	if r.IROverruns != 0 {
		t.Fatalf("%d report overruns at default sizes", r.IROverruns)
	}
	wantReports := int64(c.SimTime / c.Period)
	total := int64(0)
	for _, n := range r.ReportsSent {
		total += n
	}
	if total != wantReports {
		t.Fatalf("reports sent = %d, want %d", total, wantReports)
	}
}

func TestAdaptiveReportMix(t *testing.T) {
	c := short()
	c.Scheme = "aaw"
	r := mustRun(t, c)
	if r.ReportsSent["TS"] == 0 {
		t.Fatal("aaw never sent a default window report")
	}
	if r.ReportsSent["TS+w'"]+r.ReportsSent["BS"] == 0 {
		t.Fatal("aaw never adapted despite long disconnections")
	}
}

func TestPerIntervalDisconnectionAblation(t *testing.T) {
	c := short()
	c.DiscPerInterval = true
	r := mustRun(t, c)
	if r.QueriesAnswered == 0 || r.ConsistencyViolations != 0 {
		t.Fatalf("per-interval model broken: %+v", r)
	}
}

func TestAsymmetricUplinkThrottles(t *testing.T) {
	fast := short()
	fast.ConsistencyCheck = false
	slow := fast
	slow.UplinkBps = 100
	rf := mustRun(t, fast)
	rs := mustRun(t, slow)
	if rs.QueriesAnswered*2 > rf.QueriesAnswered {
		t.Fatalf("100 b/s uplink: %d vs %d — starved uplink should throttle throughput",
			rs.QueriesAnswered, rf.QueriesAnswered)
	}
	if rs.UpUtilization < 0.9 {
		t.Fatalf("starved uplink utilization %v", rs.UpUtilization)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.DBSize = 1 },
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.WindowIntervals = 0 },
		func(c *Config) { c.DownlinkBps = 0 },
		func(c *Config) { c.UplinkBps = -1 },
		func(c *Config) { c.SimTime = 10 },
		func(c *Config) { c.MeanThink = 0 },
		func(c *Config) { c.MeanUpdate = 0 },
		func(c *Config) { c.MeanDisc = 0 },
		func(c *Config) { c.ProbDisc = 1.5 },
		func(c *Config) { c.Workload = workload.Workload{} },
		func(c *Config) { c.Scheme = "bogus" },
	}
	for i, mut := range bad {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		if _, err := Run(c); err == nil {
			t.Fatalf("bad config %d ran", i)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestValidateRejectsWorkloadBeyondDB pins that a workload drawing ids
// the database does not hold is a configuration error, on either side and
// for every access pattern, rather than an index panic on the first query
// or update; a workload over a smaller space than the database is fine.
func TestValidateRejectsWorkloadBeyondDB(t *testing.T) {
	small := Default()
	small.DBSize = 2000 // Default's workload still spans 10000 items
	zipf := Default()
	zipf.Workload.Query = workload.Zipf(zipf.DBSize+1, 0.8).Query
	hot := Default()
	hot.Workload.Query = workload.HotColdAccess{N: 50, HotLo: 0, HotHi: int32(hot.DBSize), HotProb: 0.8}
	update := Default()
	update.Workload.Update = workload.UniformAccess{N: update.DBSize + 1}
	for i, c := range []Config{small, zipf, hot, update} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: accepted a workload beyond the %d-item database", i, c.DBSize)
		}
		if _, err := Run(c); err == nil {
			t.Errorf("config %d ran", i)
		}
	}
	c := Default()
	c.SimTime = 2000
	c.Workload = workload.HotCold(c.DBSize / 2)
	if _, err := Run(c); err != nil {
		t.Fatalf("workload over half the database: %v", err)
	}
}

func TestCacheCapacity(t *testing.T) {
	c := Default()
	if c.CacheCapacity() != 200 { // 2% of 10000
		t.Fatalf("capacity = %d", c.CacheCapacity())
	}
	c.BufferPct = 0.01
	if c.CacheCapacity() != 100 {
		t.Fatalf("capacity = %d", c.CacheCapacity())
	}
	c.BufferPct = 0
	if c.CacheCapacity() != 1 {
		t.Fatalf("capacity floor = %d", c.CacheCapacity())
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Client: 1, Item: 2, Served: 3, Correct: 4, Tlb: 5}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}

func TestChannelAccountingConsistent(t *testing.T) {
	c := short()
	r := mustRun(t, c)
	// Every fetch costs one control-size uplink message; validation bits
	// match the per-client tally.
	if r.UpControlBits != r.UplinkValidationBits {
		t.Fatalf("uplink control bits %v != validation tally %v",
			r.UpControlBits, r.UplinkValidationBits)
	}
	if r.DownReportBits <= 0 || r.DownDataBits <= 0 {
		t.Fatalf("downlink accounting: %+v", r)
	}
	if r.MeanResponse <= 0 || r.MaxResponse < r.MeanResponse {
		t.Fatalf("response stats: mean=%v max=%v", r.MeanResponse, r.MaxResponse)
	}
}

func TestZipfWorkloadRuns(t *testing.T) {
	c := short()
	c.Workload = workload.Zipf(c.DBSize, 0.95)
	r := mustRun(t, c)
	if r.ConsistencyViolations != 0 || r.QueriesAnswered == 0 {
		t.Fatalf("zipf run broken: %+v", r)
	}
	// Skewed queries should beat uniform's hit ratio.
	cu := short()
	ru := mustRun(t, cu)
	if r.HitRatio <= ru.HitRatio {
		t.Fatalf("zipf hit ratio %v <= uniform %v", r.HitRatio, ru.HitRatio)
	}
}

func TestSIGSchemeEndToEnd(t *testing.T) {
	c := short()
	c.Scheme = "sig"
	r := mustRun(t, c)
	if r.QueriesAnswered == 0 {
		t.Fatal("sig answered nothing")
	}
	if r.ConsistencyViolations != 0 {
		t.Fatalf("sig served stale data: %v", r.FirstViolation)
	}
	if r.UplinkValidationBits != 0 {
		t.Fatal("sig sent validation uplink traffic")
	}
	if r.Salvages == 0 {
		t.Fatal("sig never salvaged across a disconnection")
	}
}

func TestWarmupDiscardsTransient(t *testing.T) {
	// With a warmup boundary, the measured query count covers only the
	// steady-state window; the full-run count must exceed it.
	full := short()
	full.ConsistencyCheck = false
	warm := full
	warm.Warmup = 3000
	rf := mustRun(t, full)
	rw := mustRun(t, warm)
	if rw.QueriesAnswered >= rf.QueriesAnswered {
		t.Fatalf("warmup run counted %d >= full run %d", rw.QueriesAnswered, rf.QueriesAnswered)
	}
	if rw.QueriesAnswered == 0 {
		t.Fatal("nothing measured after warmup")
	}
	if rw.MeasuredTime != 3000 {
		t.Fatalf("measured time = %v", rw.MeasuredTime)
	}
	// Utilization is still a fraction over the measured window.
	if rw.DownUtilization < 0.5 || rw.DownUtilization > 1.0001 {
		t.Fatalf("warmup utilization = %v", rw.DownUtilization)
	}
	// The steady-state window (half the horizon) should answer a sizeable
	// share of the full run's queries.
	if rw.QueriesAnswered*3 < rf.QueriesAnswered {
		t.Fatalf("warmup window answered %d, suspiciously few vs %d", rw.QueriesAnswered, rf.QueriesAnswered)
	}
}

func TestWarmupValidation(t *testing.T) {
	c := Default()
	c.Warmup = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative warmup accepted")
	}
	c.Warmup = c.SimTime
	if err := c.Validate(); err == nil {
		t.Fatal("warmup >= horizon accepted")
	}
}

func TestResponsePercentiles(t *testing.T) {
	c := short()
	c.ConsistencyCheck = false
	r := mustRun(t, c)
	if !(r.RespP50 > 0 && r.RespP50 <= r.RespP95 && r.RespP95 <= r.RespP99) {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v", r.RespP50, r.RespP95, r.RespP99)
	}
}

func TestTraceCapturesProtocolFlow(t *testing.T) {
	c := short()
	c.ConsistencyCheck = false
	c.Scheme = "aaw"
	tr := trace.New(100000)
	c.Trace = tr
	r := mustRun(t, c)
	if tr.Total() == 0 {
		t.Fatal("nothing traced")
	}
	// The trace must agree with the aggregate statistics.
	if int64(tr.Count(trace.QueryDone)) != r.QueriesAnswered {
		t.Fatalf("trace counted %d completed queries, results say %d",
			tr.Count(trace.QueryDone), r.QueriesAnswered)
	}
	if int64(tr.Count(trace.ControlSent)) != r.ValidationUplinkMsgs {
		t.Fatalf("trace counted %d control sends, results say %d",
			tr.Count(trace.ControlSent), r.ValidationUplinkMsgs)
	}
	wantReports := int64(0)
	for _, n := range r.ReportsSent {
		wantReports += n
	}
	if int64(tr.Count(trace.ReportBroadcast)) != wantReports {
		t.Fatalf("trace counted %d broadcasts, results say %d",
			tr.Count(trace.ReportBroadcast), wantReports)
	}
	// Clients still asleep at the horizon have no reconnect event, so the
	// difference is bounded by the population size.
	gap := tr.Count(trace.Disconnect) - tr.Count(trace.Reconnect)
	if gap < 0 || gap > c.Clients {
		t.Fatalf("disconnects %d vs reconnects %d",
			tr.Count(trace.Disconnect), tr.Count(trace.Reconnect))
	}
	// Chronological order.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatal("trace out of order")
		}
	}
}

func TestReportLossInjection(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "bs", "afw", "aaw", "sig", "at"} {
		c := short()
		c.Scheme = scheme
		c.Faults.DownLoss = faults.Bernoulli(0.2)
		r := mustRun(t, c)
		if r.ReportsLost == 0 {
			t.Fatalf("%s: no reports lost at 20%% loss", scheme)
		}
		// The headline: lossy reception degrades performance but must
		// never produce a stale read.
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads under report loss; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: deadlocked under report loss", scheme)
		}
	}
}

func TestReportLossValidation(t *testing.T) {
	c := Default()
	c.Faults.DownLoss = faults.Bernoulli(1.5)
	if err := c.Validate(); err == nil {
		t.Fatal("bad loss probability accepted")
	}
}

func TestThroughputConfidenceInterval(t *testing.T) {
	c := short()
	c.ConsistencyCheck = false
	r := mustRun(t, c)
	if r.ThroughputCI95 <= 0 {
		t.Fatalf("CI = %v", r.ThroughputCI95)
	}
	// The error bar should be a modest fraction of the estimate, and the
	// estimate must be consistent with itself under a different seed
	// within a few CI widths.
	if r.ThroughputCI95 > float64(r.QueriesAnswered)/2 {
		t.Fatalf("CI %v too wide for %d queries", r.ThroughputCI95, r.QueriesAnswered)
	}
	c.Seed = 42
	r2 := mustRun(t, c)
	diff := float64(r.QueriesAnswered - r2.QueriesAnswered)
	if diff < 0 {
		diff = -diff
	}
	if diff > 6*(r.ThroughputCI95+r2.ThroughputCI95) {
		t.Fatalf("seeds differ by %v, CIs %v/%v: error bar meaningless",
			diff, r.ThroughputCI95, r2.ThroughputCI95)
	}
}
