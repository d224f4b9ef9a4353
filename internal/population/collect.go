package population

import (
	"mobicache/internal/core"
	"mobicache/internal/stats"
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

// TotalAnswered sums answered queries across the population for the
// engine's batch-means sampler.
func (p *Population) TotalAnswered() int64 {
	var total int64
	for i := range p.counts {
		total += p.counts[i].QueriesAnswered
	}
	return total
}

// CacheTotals sums Lookup outcomes across the population for the
// timeline hit-ratio gauge.
func (p *Population) CacheTotals() (hits, accesses int64) {
	for i := range p.caches {
		h := p.caches[i].Hits()
		hits += h
		accesses += h + p.caches[i].Misses()
	}
	return hits, accesses
}

// ResetStats zeroes every client's measurement counters at the warmup
// boundary, in index order; protocol and cache state are untouched.
func (p *Population) ResetStats() {
	for i := range p.counts {
		cnt := &p.counts[i]
		// A query straddling the warmup boundary stays issued so the
		// accounting identity holds over the measured interval; a crash
		// straddling it stays counted so the restart identity closes.
		*cnt = Counters{QueriesIssued: p.InFlight(i)}
		if p.offlineCrash[i] {
			cnt.Crashes = 1
		}
		cnt.RespTime = stats.Tally{}
		p.states[i].Cache.ResetStats()
		p.states[i].Drops = 0
		p.states[i].Salvages = 0
	}
}
