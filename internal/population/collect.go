package population

import (
	"mobicache/internal/core"
)

// Result-collection accessors. The engine's collection loop walks
// clients in index order, so every float64 accumulation happens in one
// fixed order.

// Clients reports the population size.
func (p *Population) Clients() int { return p.cfg.Clients }

// Count exposes client i's measurement counters.
func (p *Population) Count(i int) *Counters { return &p.counts[i] }

// State exposes client i's protocol state.
func (p *Population) State(i int) *core.ClientState { return &p.states[i] }

// InFlight is 1 while client i's query is issued but not yet answered,
// timed out, or shed. The engine folds it into the accounting identity
// issued == answered + timed_out + shed + in_flight, computed from
// independent counters so the check is non-tautological.
func (p *Population) InFlight(i int) int64 {
	if p.queryOpen[i] {
		return 1
	}
	return 0
}

// CrashedDown reports whether client i is crashed and not yet
// restarted, so the restart accounting identity closes at the horizon.
func (p *Population) CrashedDown(i int) bool { return p.offlineCrash[i] }

// Totals is one population-wide sum of the client tallies the engine
// polls on every sample tick: the batch-means sampler, the timeline's
// hit ratio and its client counter columns all read it. Each field is
// the sum of the per-client counter Results is built from.
type Totals struct {
	QueriesAnswered  int64
	QueriesTimedOut  int64
	QueriesShed      int64
	Retries          int64
	ReportsLost      int64
	ReportsCorrupted int64
	EpochDegrades    int64
	SoloDisconnects  int64
	IRGaps           int64
	IRDuplicates     int64
	IRReorders       int64
	Salvages         int64
	Drops            int64
	CacheHits        int64
	CacheMisses      int64
}

// Totals sums the client tallies in one pass, in index order. Without
// a timeline only QueriesAnswered, all the batch-means sampler reads, is
// summed: the other tallies span several cache lines per client, and
// the fan-out workloads sample thousands of clients every tick.
func (p *Population) Totals(timeline bool) Totals {
	var t Totals
	for i := range p.counts {
		cnt, st := &p.counts[i], &p.states[i]
		t.QueriesAnswered += cnt.QueriesAnswered
		if !timeline {
			continue
		}
		t.QueriesTimedOut += cnt.QueriesTimedOut
		t.QueriesShed += cnt.QueriesShed
		t.Retries += cnt.Retries
		t.ReportsLost += cnt.ReportsLost
		t.ReportsCorrupted += cnt.ReportsCorrupted
		t.EpochDegrades += cnt.EpochDegrades
		t.SoloDisconnects += cnt.SoloDisconnects
		t.IRGaps += cnt.IRGaps
		t.IRDuplicates += cnt.IRDuplicates
		t.IRReorders += cnt.IRReorders
		t.Salvages += st.Salvages
		t.Drops += st.Drops
		t.CacheHits += p.caches[i].Hits()
		t.CacheMisses += p.caches[i].Misses()
	}
	return t
}
