package population

import "mobicache/internal/metrics"

// Metrics groups the timeline instruments the mobile clients drive. One
// instance is shared by every client in a cell (the engine wires it from
// the run's metrics registry); all hook methods are nil-safe no-ops, so
// client code calls them unconditionally, exactly like trace.Tracer.
type Metrics struct {
	// Queries counts completed queries; Resp observes their response
	// times for per-interval percentiles.
	Queries *metrics.Counter
	Resp    *metrics.Histogram
	// Retries counts uplink exchange timeouts; ReportsLost and
	// ReportsCorrupted count reports destroyed by the downlink fault
	// model; EpochDegrades counts recovery-marker-forced cache drops.
	Retries          *metrics.Counter
	ReportsLost      *metrics.Counter
	ReportsCorrupted *metrics.Counter
	EpochDegrades    *metrics.Counter
	// Disconnects counts power-downs; Salvages and Drops the cache
	// outcomes of the invalidation protocol.
	Disconnects *metrics.Counter
	Salvages    *metrics.Counter
	Drops       *metrics.Counter
	// DeadlineMisses counts queries abandoned at their deadline;
	// QueriesShed counts queries abandoned immediately because the
	// bounded uplink tail-dropped their only fetch request.
	DeadlineMisses *metrics.Counter
	QueriesShed    *metrics.Counter
	// Sequence-fence verdicts (armed only under the adversarial-delivery
	// layer): gaps detected, duplicates dropped, reorders dropped.
	IRGaps       *metrics.Counter
	IRDuplicates *metrics.Counter
	IRReorders   *metrics.Counter
	// AoI observes each answered item's age of information (wired only
	// when span/AoI observability is enabled).
	AoI *metrics.Histogram
	// Population-churn transitions (armed only under the churn layer):
	// storm-forced disconnections, process crashes, warm and cold
	// restarts, and verified snapshot rejections.
	StormDisconnects *metrics.Counter
	ClientCrashes    *metrics.Counter
	RestartsWarm     *metrics.Counter
	RestartsCold     *metrics.Counter
	SnapshotRejects  *metrics.Counter
}

func (m *Metrics) aoi(age float64) {
	if m == nil {
		return
	}
	m.AoI.Observe(age)
}

func (m *Metrics) deadlineMiss() {
	if m == nil {
		return
	}
	m.DeadlineMisses.Inc()
}

func (m *Metrics) queryShed() {
	if m == nil {
		return
	}
	m.QueriesShed.Inc()
}

func (m *Metrics) queryDone(resp float64) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	m.Resp.Observe(resp)
}

func (m *Metrics) retry() {
	if m == nil {
		return
	}
	m.Retries.Inc()
}

func (m *Metrics) reportLost() {
	if m == nil {
		return
	}
	m.ReportsLost.Inc()
}

func (m *Metrics) reportCorrupted() {
	if m == nil {
		return
	}
	m.ReportsCorrupted.Inc()
}

func (m *Metrics) epochDegrade() {
	if m == nil {
		return
	}
	m.EpochDegrades.Inc()
}

func (m *Metrics) disconnected() {
	if m == nil {
		return
	}
	m.Disconnects.Inc()
}

func (m *Metrics) salvage() {
	if m == nil {
		return
	}
	m.Salvages.Inc()
}

func (m *Metrics) dropAll() {
	if m == nil {
		return
	}
	m.Drops.Inc()
}

func (m *Metrics) irGap() {
	if m == nil {
		return
	}
	m.IRGaps.Inc()
}

func (m *Metrics) irDuplicate() {
	if m == nil {
		return
	}
	m.IRDuplicates.Inc()
}

func (m *Metrics) irReorder() {
	if m == nil {
		return
	}
	m.IRReorders.Inc()
}

func (m *Metrics) stormDisconnect() {
	if m == nil {
		return
	}
	m.StormDisconnects.Inc()
}

func (m *Metrics) clientCrash() {
	if m == nil {
		return
	}
	m.ClientCrashes.Inc()
}

func (m *Metrics) restartWarm() {
	if m == nil {
		return
	}
	m.RestartsWarm.Inc()
}

func (m *Metrics) restartCold() {
	if m == nil {
		return
	}
	m.RestartsCold.Inc()
}

func (m *Metrics) snapshotReject() {
	if m == nil {
		return
	}
	m.SnapshotRejects.Inc()
}
