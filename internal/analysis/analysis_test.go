package analysis

import (
	"math"
	"testing"

	"mobicache/internal/engine"
	"mobicache/internal/workload"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestReportBitsModels(t *testing.T) {
	c := engine.Default()
	// TS window: 200 s of updates at 1 transaction/100 s × 5 items ≈ 10
	// entries of (14+64) bits plus the 64-bit header.
	c.Scheme = "ts"
	bits, err := ReportBits(c)
	if err != nil {
		t.Fatal(err)
	}
	if bits < 700 || bits > 900 {
		t.Fatalf("ts report bits = %v, want ≈ 64+10*78", bits)
	}
	// BS: ~2N plus timestamps.
	c.Scheme = "bs"
	bits, _ = ReportBits(c)
	if bits < 2*10000 || bits > 2*10000+16*64+128 {
		t.Fatalf("bs report bits = %v", bits)
	}
	c.Scheme = "nope"
	if _, err := ReportBits(c); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestHitRatioModels(t *testing.T) {
	c := engine.Default() // uniform, 2% buffer
	if got := HitRatio(c); relErr(got, 0.02) > 1e-9 {
		t.Fatalf("uniform hit ratio = %v", got)
	}
	c.Workload = workload.HotCold(c.DBSize) // 200-item cache ⊇ 100 hot
	got := HitRatio(c)
	// 0.8 + 0.2*100/9900 ≈ 0.802.
	if got < 0.8 || got > 0.81 {
		t.Fatalf("hotcold hit ratio = %v", got)
	}
	// Cache smaller than the hot region.
	c.DBSize = 1000
	c.Workload = workload.HotCold(1000) // 20-item cache, 100 hot items
	got = HitRatio(c)
	if relErr(got, 0.8*20.0/100) > 1e-9 {
		t.Fatalf("small-cache hotcold hit ratio = %v", got)
	}
}

// The headline cross-validation: the simulator must land near the
// analytic throughput in each regime. The model is steady state, so the
// simulated count is the queries answered between 5 000 s and 30 000 s:
// a run stopped at 5 000 s is the opening of the same seed's 30 000 s
// run (engine's TestRunIsPrefixOfLongerRun), so the difference of their
// counts drops the transient.
func TestPredictionMatchesSimulation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*engine.Config)
		tol  float64
	}{
		{"base-ts", func(c *engine.Config) { c.Scheme = "ts" }, 0.15},
		{"base-aaw", func(c *engine.Config) { c.Scheme = "aaw" }, 0.15},
		{"bs-overhead", func(c *engine.Config) {
			c.Scheme = "bs"
			c.DBSize = 40000
			c.Workload = workload.Uniform(40000)
		}, 0.20},
		{"uplink-bound", func(c *engine.Config) {
			c.Scheme = "aaw"
			c.UplinkBps = 200
		}, 0.15},
		{"demand-bound", func(c *engine.Config) {
			c.Scheme = "aaw"
			c.MeanThink = 2000 // sleepy population, unsaturated downlink
		}, 0.30},
	}
	const transient, horizon = 5000.0, 30000.0
	answered := func(c engine.Config, simTime float64) int64 {
		c.SimTime = simTime
		res, err := engine.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.QueriesAnswered
	}
	for _, tc := range cases {
		c := engine.Default()
		tc.mod(&c)
		c.SimTime = horizon - transient
		pred, err := Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(answered(c, horizon) - answered(c, transient))
		if e := relErr(got, pred.Throughput); e > tc.tol {
			t.Fatalf("%s: simulated %v vs predicted %v (regime %s, err %.0f%%)",
				tc.name, got, pred.Throughput, pred.Regime, e*100)
		}
	}
}

func TestPredictionRegimes(t *testing.T) {
	c := engine.Default()
	p, _ := Predict(c)
	if p.Regime != "downlink" {
		t.Fatalf("base regime = %s", p.Regime)
	}
	c.UplinkBps = 100
	p, _ = Predict(c)
	if p.Regime != "uplink" {
		t.Fatalf("starved-uplink regime = %s", p.Regime)
	}
	c = engine.Default()
	c.MeanThink = 5000
	c.ProbDisc = 0.5
	c.MeanDisc = 8000
	p, _ = Predict(c)
	if p.Regime != "demand" {
		t.Fatalf("sleepy regime = %s", p.Regime)
	}
}

func TestIRFractionPredictsBSCollapse(t *testing.T) {
	// The analytic IR fraction at N=80000 (~80%) is the whole Figure 5
	// story: capacity scales by (1 - IRFraction).
	c := engine.Default()
	c.Scheme = "bs"
	c.DBSize = 80000
	c.Workload = workload.Uniform(80000)
	p, err := Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.IRFraction < 0.75 || p.IRFraction > 0.9 {
		t.Fatalf("BS IR fraction at N=80000 = %v", p.IRFraction)
	}
	c.Scheme = "aaw"
	p2, _ := Predict(c)
	if p2.IRFraction > 0.05 {
		t.Fatalf("aaw IR fraction = %v", p2.IRFraction)
	}
}

func TestDistinctUpdatedSaturates(t *testing.T) {
	// With draws far exceeding the database, the distinct count
	// approaches N rather than growing without bound.
	got := distinctUpdated(100, 1e6, 1, 5)
	if got < 99 || got > 100 {
		t.Fatalf("distinct = %v", got)
	}
	small := distinctUpdated(10000, 200, 100, 5)
	if small < 9 || small > 10 {
		t.Fatalf("window distinct = %v, want ≈10", small)
	}
}
