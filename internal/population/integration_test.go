package population_test

import (
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
)

// Full-stack exercise of the population through the engine: every
// delivery, fault, churn and overload path in this package runs under its
// real driver. Bit-level behaviour is pinned by internal/engine's digest
// oracle; these runs assert the package-local invariants (work happened,
// nothing went stale) while giving the population's own coverage profile
// the lifecycle paths the unit tests cannot reach.
func aggBase(seed uint64) engine.Config {
	c := engine.Default()
	c.Clients = 48
	c.SimTime = 4000
	c.MeanDisc = 400
	c.ConsistencyCheck = true
	c.Seed = seed
	return c
}

func run(t *testing.T, c engine.Config) *engine.Results {
	t.Helper()
	r, err := engine.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func retry() faults.RetryPolicy {
	return faults.RetryPolicy{
		Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6,
	}
}

func TestAggregateLifecycleAllSchemes(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw", "sig"} {
		t.Run(scheme, func(t *testing.T) {
			c := aggBase(1)
			c.Scheme = scheme
			r := run(t, c)
			if r.QueriesAnswered == 0 {
				t.Fatal("population answered nothing")
			}
		})
	}
}

func TestAggregateUnderChaos(t *testing.T) {
	c := aggBase(2)
	c.Scheme = "ts-check"
	c.Faults = faults.Config{
		DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1},
		UpLoss:    faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.3},
		CrashMTBF: 2000,
		CrashMTTR: 120,
		Retry:     retry(),
	}
	r := run(t, c)
	if r.ReportsLost == 0 {
		t.Fatal("GE chain lost nothing at LossBad=0.5")
	}
	if r.Retries == 0 {
		t.Fatal("uplink loss with a retry policy produced no retries")
	}
}

func TestAggregateUnderOverload(t *testing.T) {
	c := aggBase(3)
	c.Scheme = "aaw"
	c.Overload.UpQueueCap = 4
	c.Overload.DownQueueCap = 4
	c.Overload.QueryDeadline = 2 * c.Period
	c.Overload.ServerPendingCap = 4
	c.Overload.Coalesce = true
	r := run(t, c)
	if r.QueriesTimedOut == 0 && r.QueriesShed == 0 {
		t.Fatal("tight caps produced no degradation at all")
	}
}

func TestAggregateUnderDelivery(t *testing.T) {
	c := aggBase(4)
	c.Scheme = "aaw"
	c.Delivery = delivery.Severity(2)
	c.Faults.Retry = retry()
	c.Spans = &engine.SpanOptions{}
	c.Metrics = metrics.New()
	r := run(t, c)
	if r.DeliveryDelayed == 0 {
		t.Fatal("delivery adversary idle at severity 2")
	}
}

func TestAggregateUnderChurn(t *testing.T) {
	c := aggBase(5)
	c.Scheme = "ts-check"
	c.Churn = churn.Severity(3)
	c.Faults.Retry = retry()
	c.Metrics = metrics.New()
	r := run(t, c)
	if r.Storms == 0 || r.ClientCrashes == 0 {
		t.Fatal("churn adversary idle at severity 3")
	}
	if r.RestartsWarm+r.RestartsCold == 0 {
		t.Fatal("no restart path exercised")
	}
}
