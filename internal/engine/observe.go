// Observability wiring: connects the run's metrics registry (Config.
// Metrics) to the server, the client population, the two channels, and
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

// newClientMetrics builds the instrument group shared by every client in
// the cell. Returns nil (all hooks become no-ops) when the registry is
// nil. The response-time histogram covers the same range as the run's
// percentile histogram and resets every interval, so resp_p50/resp_p95
// describe each interval alone.
func newClientMetrics(reg *metrics.Registry, c Config) *population.Metrics {
	if reg == nil {
		return nil
	}
	// The AoI timeline column exists only when the span/AoI layer is armed:
	// without it, clients never observe answer ages, and registering the
	// histogram would add empty aoi_p* columns to every CSV.
	var aoi *metrics.Histogram
	if c.Spans != nil {
		aoi = reg.Histogram("aoi", 0, c.SimTime, 512, 0.50, 0.95)
	}
	return &population.Metrics{
		AoI:              aoi,
		Queries:          reg.Counter("queries"),
		Resp:             reg.Histogram("resp", 0, 4*c.MeanThink+40*c.Period, 512, 0.50, 0.95),
		Retries:          reg.Counter("retries"),
		ReportsLost:      reg.Counter("reports_lost"),
		ReportsCorrupted: reg.Counter("reports_corrupt"),
		EpochDegrades:    reg.Counter("epoch_degrades"),
		Disconnects:      reg.Counter("disconnects"),
		Salvages:         reg.Counter("salvages"),
		Drops:            reg.Counter("drops"),
		DeadlineMisses:   reg.Counter("deadline_miss"),
		QueriesShed:      reg.Counter("queries_shed"),
		IRGaps:           reg.Counter("ir_gaps"),
		IRDuplicates:     reg.Counter("ir_dups"),
		IRReorders:       reg.Counter("ir_reorders"),
	}
}

// wireSystemMetrics registers the system-level timeline columns: the
// per-interval cache hit ratio across the population, the server's
// report choice and crash state, both channels, and the kernel's own
// event accounting. No-op when metrics are disabled.
func wireSystemMetrics(c Config, k *sim.Kernel, srv *server.Server,
	down, up *netsim.Channel, pop *population.Population) {
	reg := c.Metrics
	if reg == nil {
		return
	}
	// Per-interval hit ratio: delta of summed hits over delta of summed
	// accesses, clamped across warmup resets. Empty intervals report 0.
	var prevHits, prevAccesses int64
	reg.GaugeFunc("hit_ratio", func() float64 {
		hits, accesses := pop.CacheTotals()
		dh, da := hits-prevHits, accesses-prevAccesses
		prevHits, prevAccesses = hits, accesses
		if da <= 0 || dh < 0 {
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
}
