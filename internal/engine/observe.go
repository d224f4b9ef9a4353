// Observability wiring: connects the run's metrics registry (Config.
// Metrics) to the client population, the server, the two channels, and
// the kernel itself. Everything here is registration-time work — the
// per-sample cost is polling closures from the engine's existing
// per-period tick, so an instrumented run schedules exactly the same
// events as an uninstrumented one (DESIGN.md §9).
package engine

import (
	"mobicache/internal/metrics"
	"mobicache/internal/netsim"
	"mobicache/internal/population"
	"mobicache/internal/server"
	"mobicache/internal/sim"
)

// wireMetrics registers every timeline column outside the span layer's,
// in CSV order, and returns the two per-interval histograms the clients
// feed: response time, over the same range as the run's percentile
// histogram, and age of information (nil unless spans are armed). Both
// are nil when metrics are disabled.
//
// Every client counter column is the per-interval delta of a field of
// tot, which the sample tick refolds from the population just before
// sampling. Those fields are the counters Results is built from, so a
// column sums to its Results field.
func wireMetrics(c Config, k *sim.Kernel, srv *server.Server,
	down, up *netsim.Channel, tot *population.Totals) (resp, aoi *metrics.Histogram) {
	reg := c.Metrics
	if reg == nil {
		return nil, nil
	}
	delta := func(name string, v *int64) {
		reg.DeltaFunc(name, func() float64 { return float64(*v) })
	}
	// The AoI columns exist only when the span/AoI layer is armed: without
	// it, clients never observe answer ages, and registering the
	// histogram would add empty aoi_p* columns to every CSV.
	if c.Spans != nil {
		aoi = reg.Histogram("aoi", 0, c.SimTime, 512, 0.50, 0.95)
	}
	delta("queries", &tot.QueriesAnswered)
	resp = reg.Histogram("resp", 0, 4*c.MeanThink+40*c.Period, 512, 0.50, 0.95)
	for _, col := range []struct {
		name string
		v    *int64
	}{
		{"retries", &tot.Retries},
		{"reports_lost", &tot.ReportsLost},
		{"reports_corrupt", &tot.ReportsCorrupted},
		{"epoch_degrades", &tot.EpochDegrades},
		{"disconnects", &tot.SoloDisconnects},
		{"salvages", &tot.Salvages},
		{"drops", &tot.Drops},
		{"deadline_miss", &tot.QueriesTimedOut},
		{"queries_shed", &tot.QueriesShed},
		{"ir_gaps", &tot.IRGaps},
		{"ir_dups", &tot.IRDuplicates},
		{"ir_reorders", &tot.IRReorders},
	} {
		delta(col.name, col.v)
	}
	// Per-interval hit ratio: delta of summed hits over delta of summed
	// accesses. Empty intervals report 0.
	var prevHits, prevAccesses int64
	reg.GaugeFunc("hit_ratio", func() float64 {
		hits, accesses := tot.CacheHits, tot.CacheHits+tot.CacheMisses
		dh, da := hits-prevHits, accesses-prevAccesses
		prevHits, prevAccesses = hits, accesses
		if da <= 0 {
			return 0
		}
		return float64(dh) / float64(da)
	})
	srv.RegisterMetrics(reg)
	down.RegisterMetrics(reg, "down", c.Period)
	up.RegisterMetrics(reg, "up", c.Period)
	// Kernel self-profile: events executed per interval and the calendar
	// depth at the sample instant.
	reg.DeltaFunc("events", func() float64 { return float64(k.Executed()) })
	reg.GaugeFunc("queue_depth", func() float64 { return float64(k.Pending()) })
	return resp, aoi
}
