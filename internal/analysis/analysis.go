// Package analysis derives closed-form, back-of-envelope predictions for
// the simulation's headline metrics — expected invalidation-report size,
// downlink overhead fraction, cache hit ratio and saturated throughput —
// from a configuration alone. The test suite cross-validates the
// discrete-event simulator against these models: a simulator whose
// measurements drift far from the physics it is supposed to implement has
// a bug, and a model that matches the simulator documents *why* the
// paper's curves look the way they do (e.g. BS's 2N-bit report directly
// predicts its Figure 5 collapse).
package analysis

import (
	"fmt"
	"math"

	"mobicache/internal/bitio"
	"mobicache/internal/engine"
)

// Prediction is the analytic estimate for one configuration.
type Prediction struct {
	// ReportBits is the expected invalidation-report size per interval.
	ReportBits float64
	// IRFraction is the downlink share spent on reports.
	IRFraction float64
	// HitRatio is the steady-state cache hit ratio.
	HitRatio float64
	// MissItemsPerQuery is the expected items fetched per query.
	MissItemsPerQuery float64
	// DemandQPS and CapacityQPS are the two throughput ceilings:
	// the closed-loop client population's query generation rate, and the
	// saturated channel's service rate.
	DemandQPS, CapacityQPS float64
	// UplinkCapacityQPS is the uplink's query ceiling (fetch requests
	// must go up before data comes down).
	UplinkCapacityQPS float64
	// Throughput is the predicted queries answered over the horizon.
	Throughput float64
	// Regime names the binding constraint: "downlink", "uplink" or
	// "demand".
	Regime string
}

// distinctUpdated estimates the number of distinct items updated during
// a window of span seconds: draws of size u every meanUpdate seconds from
// n items, with collision correction n(1-(1-1/n)^draws).
func distinctUpdated(n int, span, meanUpdate, itemsPerUpdate float64) float64 {
	draws := span / meanUpdate * itemsPerUpdate
	return float64(n) * (1 - math.Pow(1-1/float64(n), draws))
}

// ReportBits predicts the expected report size per interval for the
// configured scheme.
func ReportBits(c engine.Config) (float64, error) {
	idBits := float64(bitio.BitsFor(c.DBSize))
	tsBits := float64(c.TSBits)
	upd := c.Workload.UpdateItems.Mean()
	switch c.Scheme {
	case "ts", "ts-check":
		nw := distinctUpdated(c.DBSize, float64(c.WindowIntervals)*c.Period, c.MeanUpdate, upd)
		return tsBits + nw*(idBits+tsBits), nil
	case "at":
		n1 := distinctUpdated(c.DBSize, c.Period, c.MeanUpdate, upd)
		return tsBits + n1*idBits, nil
	case "bs":
		bits := tsBits // dummy B0 timestamp
		for size := c.DBSize; size >= 2; size /= 2 {
			bits += float64(size) + tsBits
		}
		return bits + tsBits, nil // + broadcast timestamp
	case "sig":
		// Default SIG configuration: 128 groups of 32 bits.
		return tsBits + 128*32, nil
	case "afw", "aaw":
		// Lower bound: the default window report; the adaptive extras are
		// workload-dependent and small at the base configuration.
		nw := distinctUpdated(c.DBSize, float64(c.WindowIntervals)*c.Period, c.MeanUpdate, upd)
		return tsBits + nw*(idBits+tsBits), nil
	default:
		return 0, fmt.Errorf("analysis: no report model for scheme %q", c.Scheme)
	}
}

// HitRatio predicts the steady-state cache hit ratio. For UNIFORM access
// an LRU cache of capacity C over N equally hot items holds a uniform
// C/N sample; for HOTCOLD the hot region (h items at probability p)
// occupies the cache first.
func HitRatio(c engine.Config) float64 {
	capacity := float64(c.CacheCapacity())
	n := float64(c.DBSize)
	switch c.Workload.Name {
	case "HOTCOLD":
		const hot, hotProb = 100.0, 0.8
		if capacity >= hot {
			// Hot region fully cached; the remainder samples the cold set.
			coldHit := (capacity - hot) / math.Max(n-hot, 1)
			return hotProb + (1-hotProb)*coldHit
		}
		// Only part of the hot region fits.
		return hotProb * capacity / hot
	default:
		return capacity / n
	}
}

// Predict computes the full analytic estimate.
func Predict(c engine.Config) (Prediction, error) {
	var p Prediction
	rb, err := ReportBits(c)
	if err != nil {
		return p, err
	}
	p.ReportBits = rb
	p.IRFraction = rb / (c.Period * c.DownlinkBps)
	p.HitRatio = HitRatio(c)
	p.MissItemsPerQuery = c.Workload.QueryItems.Mean() * (1 - p.HitRatio)

	// Capacity: downlink bits left after reports, spent on data items.
	p.CapacityQPS = c.DownlinkBps * (1 - p.IRFraction) / (p.MissItemsPerQuery * c.ItemBits)

	// Uplink: one fetch request per query with at least one miss
	// (approximately every query at low hit ratios).
	pFetch := 1 - math.Pow(p.HitRatio, c.Workload.QueryItems.Mean())
	p.UplinkCapacityQPS = c.UplinkBps / (pFetch * c.ControlMsgBits)

	// Demand: each client cycles through gap + report wait + service.
	gap := (1-c.ProbDisc)*c.MeanThink + c.ProbDisc*c.MeanDisc
	service := p.MissItemsPerQuery * c.ItemBits / c.DownlinkBps
	cycle := gap + c.Period/2 + service
	p.DemandQPS = float64(c.Clients) / cycle

	qps := p.CapacityQPS
	p.Regime = "downlink"
	if p.UplinkCapacityQPS < qps {
		qps = p.UplinkCapacityQPS
		p.Regime = "uplink"
	}
	if p.DemandQPS < qps {
		qps = p.DemandQPS
		p.Regime = "demand"
	}
	p.Throughput = qps * c.SimTime
	return p, nil
}
