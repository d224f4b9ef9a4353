package exp

import (
	"fmt"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/overload"
	"mobicache/internal/rng"
	"mobicache/internal/workload"
)

// randomConfig draws one simulation configuration from the property-test
// distribution: any scheme, random disconnection/update intensity, and —
// each with its own coin — the overload and fault-injection layers. The
// draw is a pure function of src, so the whole suite is a fixed grid:
// failures reproduce from the test's seed constant alone.
func randomConfig(src *rng.Source) engine.Config {
	c := engine.Default()
	names := core.Names()
	c.Scheme = names[src.Intn(len(names))]
	c.SimTime = 1500
	c.ConsistencyCheck = true

	switch src.Intn(3) {
	case 0:
		c.Workload = workload.Uniform(c.DBSize)
	case 1:
		c.Workload = workload.HotCold(c.DBSize)
	case 2:
		c.Workload = workload.Zipf(c.DBSize, 0.5+src.Float64())
	}

	c.ProbDisc = 0.05 + 0.45*src.Float64()
	c.MeanDisc = 100 + 1900*src.Float64()
	c.DiscPerInterval = src.Bool(0.25)
	c.MeanUpdate = 20 + 180*src.Float64()
	c.MeanThink = 30 + 120*src.Float64()

	if src.Bool(0.5) { // overload layer on: caps need a recovery path
		c.Overload = overload.Config{
			QueryDeadline:    60 + 240*src.Float64(),
			UpQueueCap:       1 + src.Intn(8),
			DownQueueCap:     1 + src.Intn(8),
			ServerPendingCap: src.Intn(12), // 0 = unbounded stays legal
			Coalesce:         src.Bool(0.5),
		}
	}
	if src.Bool(0.5) { // fault layer on
		c.Faults.DownLoss = faults.GEParams{
			PGoodBad: 0.05 + 0.1*src.Float64(),
			PBadGood: 0.2 + 0.5*src.Float64(),
			LossGood: 0.02 * src.Float64(),
			LossBad:  0.2 + 0.5*src.Float64(),
		}
		if src.Bool(0.5) {
			c.Faults.DownLoss.CorruptGood = 0.01 * src.Float64()
			c.Faults.DownLoss.CorruptBad = 0.1 * src.Float64()
		}
		if src.Bool(0.5) { // uplink loss always paired with a retry policy
			c.Faults.UpLoss = faults.GEParams{
				PGoodBad: 0.05, PBadGood: 0.5,
				LossGood: 0.01, LossBad: 0.3,
			}
			c.Faults.Retry = faults.RetryPolicy{
				Timeout: 30 + 60*src.Float64(), Backoff: 2,
				MaxDelay: 600, Jitter: 0.1 * src.Float64(), MaxAttempts: 6,
			}
		}
		if src.Bool(0.3) {
			c.Faults.CrashMTBF = 2000 + 4000*src.Float64()
			c.Faults.CrashMTTR = 20 + 80*src.Float64()
		}
	}
	if src.Bool(0.4) { // delivery adversary on: must ride a recovery path
		c.Delivery = delivery.Severity(0.5 + 3.5*src.Float64())
		if !c.Faults.Retry.Enabled() && c.Overload.QueryDeadline <= 0 {
			c.Faults.Retry = faults.RetryPolicy{
				Timeout: 60, Backoff: 2, MaxDelay: 960, Jitter: 0.1, MaxAttempts: 6,
			}
		}
	}
	if src.Bool(0.35) { // churn adversary on: same recovery-path rule
		c.Churn = churn.Severity(0.5 + 3.5*src.Float64())
		if !c.Faults.Retry.Enabled() && c.Overload.QueryDeadline <= 0 {
			c.Faults.Retry = faults.RetryPolicy{
				Timeout: 60, Backoff: 2, MaxDelay: 960, Jitter: 0.1, MaxAttempts: 6,
			}
		}
	}
	return c
}

// describe compresses a config into the line printed on failure, enough
// to reconstruct the case by eye (the seed reconstructs it exactly).
func describe(c engine.Config) string {
	return fmt.Sprintf("scheme=%s wl=%s probdisc=%.2f meandisc=%.0f update=%.0f overload=%v faults=%v crash=%v delivery=%v churn=%v",
		c.Scheme, c.Workload.Name, c.ProbDisc, c.MeanDisc, c.MeanUpdate,
		c.Overload.Enabled(), c.Faults.DownLoss != faults.GEParams{}, c.Faults.CrashMTBF > 0,
		c.Delivery.Enabled(), c.Churn.Enabled())
}

// TestSimulationInvariants is the randomized property suite: across a
// fixed seed grid of configurations spanning all schemes and the
// disconnection, update, overload and fault knobs, every run must pass
// the audit engine.Run applies: zero stale reads, every accounting
// identity, and no negative counter anywhere in its Results.
func TestSimulationInvariants(t *testing.T) {
	const cases = 24
	gen := rng.New(20260806)
	for i := 0; i < cases; i++ {
		c := randomConfig(gen)
		c.Seed = rng.DeriveSeed(99, uint64(i))
		if _, err := engine.Run(c); err != nil {
			t.Errorf("case %d (%s): %v", i, describe(c), err)
		}
	}
}

// TestCompoundChaosInvariants forces all four adversarial layers on at
// once — delivery perturbation, Gilbert–Elliott loss on both channels,
// tight overload caps, and population churn — across every scheme. The
// layers compose (delivery wraps inside the GE verdict; overload
// shedding races the retry policy; storms and crashes strand exchanges
// under all of it), and under the full stack the run's audit must still
// pass: zero stale reads, exact query accounting, the churn
// reconciliation identities and queue peaks within their caps.
func TestCompoundChaosInvariants(t *testing.T) {
	for _, scheme := range core.Names() {
		c := engine.Default()
		c.Scheme = scheme
		c.SimTime = 2000
		c.ConsistencyCheck = true
		c.ProbDisc = 0.2
		c.MeanDisc = 300
		c.Delivery = delivery.Severity(3)
		c.Churn = churn.Severity(3)
		c.Faults.DownLoss = faults.GEParams{
			PGoodBad: 0.1, PBadGood: 0.4, LossGood: 0.02, LossBad: 0.4,
			CorruptGood: 0.005, CorruptBad: 0.05,
		}
		c.Faults.UpLoss = faults.GEParams{
			PGoodBad: 0.05, PBadGood: 0.5, LossGood: 0.01, LossBad: 0.3,
		}
		c.Faults.Retry = faults.RetryPolicy{
			Timeout: 120, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6,
		}
		c.Overload = overload.Config{
			QueryDeadline: 300, UpQueueCap: 6, DownQueueCap: 6,
			ServerPendingCap: 12, Coalesce: true,
		}
		r, err := engine.Run(c)
		if r == nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err != nil {
			t.Errorf("under compound chaos: %v", err)
		}
		if r.DeliveryDelayed == 0 && r.DeliveryDups == 0 && r.Partitions == 0 {
			t.Errorf("%s: delivery adversary idle under severity 3", scheme)
		}
		if r.Storms == 0 && r.ClientCrashes == 0 {
			t.Errorf("%s: churn adversary idle under severity 3", scheme)
		}
	}
}
