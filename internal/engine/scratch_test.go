package engine

import (
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/workload"
)

// TestScratchReuseMatchesFresh runs a config sequence through one Scratch
// and requires every run's digest to equal a fresh Run's. The sequence
// grows and shrinks the database, the population and the cache size,
// toggles the update log, mixes schemes, and includes a multi-cell run
// and a churned one (warm restarts reload caches), so every array the
// scratch reuses is met both larger and smaller than the run needs.
func TestScratchReuseMatchesFresh(t *testing.T) {
	steps := []struct {
		name string
		mod  func(*Config)
	}{
		{"base-aaw", func(c *Config) {
			c.Scheme = "aaw"
			c.DBSize = 2000
		}},
		{"grow-bs", func(c *Config) {
			c.Scheme = "bs"
			c.DBSize, c.Clients, c.BufferPct = 5000, 96, 0.05
			c.ConsistencyCheck = false
		}},
		{"shrink-ts-check", func(c *Config) {
			c.Scheme = "ts-check"
			c.DBSize, c.Clients, c.BufferPct = 300, 20, 0.01
		}},
		{"multicell-afw", func(c *Config) {
			c.Scheme = "afw"
			c.DBSize, c.Cells, c.MoveProb, c.Clients = 2000, 3, 0.3, 60
		}},
		{"churn-at", func(c *Config) {
			c.Scheme = "at"
			c.DBSize, c.BufferPct = 1200, 0.03
			c.Churn = churn.Severity(1)
			c.Faults.Retry = chaosRetry()
		}},
		{"unlogged-ts", func(c *Config) {
			c.Scheme = "ts"
			c.DBSize, c.Clients = 700, 40
			c.ConsistencyCheck = false
		}},
		{"regrow-bs", func(c *Config) {
			c.Scheme = "bs"
			c.DBSize, c.Clients, c.BufferPct = 6000, 110, 0.04
		}},
	}
	var s Scratch
	for i, st := range steps {
		c := equivBase(uint64(i + 1))
		c.SimTime = 10000
		st.mod(&c)
		c.Workload = workload.Uniform(c.DBSize)
		if i%2 == 1 {
			c.Workload = workload.HotCold(c.DBSize)
		}
		reused, err := s.Run(c)
		if err != nil {
			t.Fatalf("%s on the scratch: %v", st.name, err)
		}
		fresh := mustRun(t, c)
		if got, want := mustDigest(t, reused), mustDigest(t, fresh); got != want {
			t.Errorf("%s: digest on a reused scratch %s, fresh %s", st.name, got, want)
		}
	}
}
