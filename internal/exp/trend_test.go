package exp

import (
	"testing"

	"mobicache/internal/engine"
	"mobicache/internal/workload"
)

// TestPaperTrendLongDisconnection is the regression guard for the
// paper's headline qualitative result (§5, Figures 9-10): under long
// disconnections the adaptive schemes dominate — AAW answers at least as
// many queries as AFW, which beats the BS baseline (whose conservative
// over-invalidation discards cache the adaptive window saves) — while
// the simple-checking scheme pays by far the highest uplink cost per
// query (it uploads every cached id where the adaptive schemes upload
// one timestamp). The sweep is seed-averaged and fully deterministic, so
// any ordering flip is a protocol regression, not noise.
func TestPaperTrendLongDisconnection(t *testing.T) {
	s := &Sweep{
		ID: "trend-long-disc", XLabel: "Mean Disconnection Time (s)",
		Xs: []float64{4000, 8000},
		Configure: func(x float64) engine.Config {
			c := engine.Default()
			c.ProbDisc = 0.1
			c.MeanDisc = x
			c.BufferPct = 0.01
			c.Workload = workload.Uniform(c.DBSize)
			return c
		},
	}
	r := NewRunner(Options{
		SimTime: 8000,
		Seeds:   []uint64{1, 2, 3},
	})
	sw, err := r.RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Xs {
		cells := sw.Cells[x]
		aaw, afw, bs, tsc := cells["aaw"], cells["afw"], cells["bs"], cells["ts-check"]

		if aaw.Throughput < afw.Throughput {
			t.Errorf("x=%v: AAW throughput %.1f < AFW %.1f (adaptive-window ordering lost)",
				x, aaw.Throughput, afw.Throughput)
		}
		if afw.Throughput < bs.Throughput {
			t.Errorf("x=%v: AFW throughput %.1f < BS %.1f (window schemes no longer beat BS)",
				x, afw.Throughput, bs.Throughput)
		}
		for _, other := range []*Cell{aaw, afw, bs} {
			if tsc.Uplink <= other.Uplink {
				t.Errorf("x=%v: ts-check uplink %.2f b/q not above %s's %.2f b/q",
					x, tsc.Uplink, other.Scheme, other.Uplink)
			}
		}
		// The gap the paper emphasises is not marginal: checking uploads
		// whole cache directories, so its per-query uplink cost should
		// exceed the adaptive schemes' by a wide factor.
		if tsc.Uplink < 3*aaw.Uplink {
			t.Errorf("x=%v: ts-check uplink %.2f b/q less than 3x AAW's %.2f b/q",
				x, tsc.Uplink, aaw.Uplink)
		}
	}
}
