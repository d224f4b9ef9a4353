package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
)

// multicellConfig is the multi-cell test base: four cells, 30% of
// wake-ups in a new cell, short horizon, frequent disconnections.
func multicellConfig() Config {
	c := Default()
	c.Cells = 4
	c.MoveProb = 0.3
	c.SimTime = 6000
	c.MeanDisc = 400
	c.ProbDisc = 0.4
	c.ConsistencyCheck = true
	return c
}

// multicellView is the Results layout of the retired stand-alone
// multi-cell assembly, field for field. The digests in
// testdata/multicell_digests.txt were recorded over it, so
// TestMulticellDigests projects each run onto it before hashing: its
// config (zeroed) wrapped a single-cell Config, encoded as it was then
// (zeroConfig), with the cell count and move probability, and a single
// cell reported itself in PerCell.
type multicellView struct {
	Config struct {
		Base     json.RawMessage
		Cells    int
		MoveProb float64
	}
	QueriesAnswered       int64
	UplinkBitsPerQuery    float64
	Handoffs              int64
	HitRatio              float64
	Drops, Salvages       int64
	PerCell               []CellStats
	MeanResponse          float64
	ConsistencyViolations int64
	FirstViolation        *Violation
}

func multicellDigest(t *testing.T, r *Results) string {
	t.Helper()
	v := multicellView{
		QueriesAnswered:       r.QueriesAnswered,
		UplinkBitsPerQuery:    r.UplinkBitsPerQuery,
		Handoffs:              r.Handoffs,
		HitRatio:              r.HitRatio,
		Drops:                 r.Drops,
		Salvages:              r.Salvages,
		PerCell:               r.PerCell,
		MeanResponse:          r.MeanResponse,
		ConsistencyViolations: r.ConsistencyViolations,
		FirstViolation:        r.FirstViolation,
	}
	v.Config.Base = zeroConfig(t)
	if v.PerCell == nil {
		v.PerCell = []CellStats{{
			QueriesAnswered: r.QueriesAnswered,
			DownUtilization: r.DownUtilization,
			ReportsSent:     r.ReportsSent,
		}}
	}
	b, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMulticellDigests pins every multi-cell result bit for bit: each
// scheme with no mobility, the default 30%, every wake-up a handoff, and
// the degenerate single cell, plus the configs of the capacity and
// mobility-cost tests. Each must hash to the digest recorded from the
// process-per-client path in testdata/multicell_digests.txt.
func TestMulticellDigests(t *testing.T) {
	table := loadDigests(t, "testdata/multicell_digests.txt")
	check := func(t *testing.T, c Config) {
		got := multicellDigest(t, mustRun(t, c))
		want, ok := table[t.Name()]
		if !ok {
			t.Fatalf("cell %s: no recorded digest (got %s)", t.Name(), got)
		}
		if got != want {
			t.Fatalf("cell %s: digest %s, recorded %s", t.Name(), got, want)
		}
	}
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"move0", func(c *Config) { c.MoveProb = 0 }},
		{"move0.3", func(c *Config) { c.MoveProb = 0.3 }},
		{"move1", func(c *Config) { c.MoveProb = 1 }},
		{"cells1", func(c *Config) { c.Cells = 1; c.MoveProb = 0.5 }},
	}
	for _, scheme := range []string{"ts", "ts-check", "bs", "afw", "aaw", "sig"} {
		for _, v := range variants {
			t.Run(scheme+"/"+v.name, func(t *testing.T) {
				c := multicellConfig()
				c.Scheme = scheme
				v.apply(&c)
				check(t, c)
			})
		}
	}
	t.Run("capacity", func(t *testing.T) {
		c := multicellConfig()
		c.ProbDisc = 0.1
		check(t, c)
	})
	t.Run("mobility-cost", func(t *testing.T) {
		c := multicellConfig()
		c.Scheme = "aaw"
		c.MeanDisc = 1000
		c.MoveProb = 1
		check(t, c)
	})
}

// TestMulticellRunsAllSchemes: every scheme runs, answers and hands off
// across cells. Run's audit fails mustRun on a stale read, so the
// paper-level guarantee survives mobility even when Tlb refers to another
// cell's reports.
func TestMulticellRunsAllSchemes(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "bs", "afw", "aaw", "sig"} {
		c := multicellConfig()
		c.Scheme = scheme
		r := mustRun(t, c)
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: no queries answered", scheme)
		}
		if r.Handoffs == 0 {
			t.Fatalf("%s: no handoffs despite mobility", scheme)
		}
	}
}

func TestMulticellDeterminism(t *testing.T) {
	c := multicellConfig()
	a := mustRun(t, c)
	b := mustRun(t, c)
	if da, db := mustDigest(t, a), mustDigest(t, b); da != db {
		t.Fatalf("same seed diverged: %s vs %s", da, db)
	}
}

func TestMulticellCapacityScales(t *testing.T) {
	// Four cells provide four downlinks: total throughput should well
	// exceed a single saturated cell with the same population.
	single := Default()
	single.SimTime = 6000
	single.MeanDisc = 400
	rs := mustRun(t, single)
	multi := multicellConfig()
	multi.ProbDisc = 0.1
	rm := mustRun(t, multi)
	if rm.QueriesAnswered < rs.QueriesAnswered*2 {
		t.Fatalf("4 cells answered %d, single cell %d: capacity did not scale",
			rm.QueriesAnswered, rs.QueriesAnswered)
	}
	if len(rm.PerCell) != 4 {
		t.Fatalf("per-cell stats = %d", len(rm.PerCell))
	}
	var sum int64
	for i, cs := range rm.PerCell {
		if cs.QueriesAnswered == 0 {
			t.Fatalf("cell %d answered nothing", i)
		}
		sum += cs.QueriesAnswered
	}
	if sum != rm.QueriesAnswered {
		t.Fatalf("cells answered %d in total, the population %d", sum, rm.QueriesAnswered)
	}
}

func TestMulticellNoMobility(t *testing.T) {
	c := multicellConfig()
	c.MoveProb = 0
	r := mustRun(t, c)
	if r.Handoffs != 0 {
		t.Fatalf("handoffs = %d with MoveProb 0", r.Handoffs)
	}
}

func TestMulticellSingleCellDegenerate(t *testing.T) {
	c := multicellConfig()
	c.Cells = 1
	c.MoveProb = 0.5 // nowhere to go
	r := mustRun(t, c)
	if r.Handoffs != 0 || r.PerCell != nil {
		t.Fatalf("single cell reported %d handoffs, %d per-cell entries", r.Handoffs, len(r.PerCell))
	}
	if r.QueriesAnswered == 0 {
		t.Fatal("no queries")
	}
	// MoveProb makes no draw with one cell: the run is the default one.
	c.MoveProb = 0
	if mustDigest(t, r) != mustDigest(t, mustRun(t, c)) {
		t.Fatal("MoveProb changed a single-cell run")
	}
}

func TestMulticellValidation(t *testing.T) {
	c := multicellConfig()
	c.Cells = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cells accepted")
	}
	c = multicellConfig()
	c.Cells = moveStream
	if err := c.Validate(); err == nil {
		t.Fatal("a cell on the mobility stream accepted")
	}
	c = multicellConfig()
	c.MoveProb = 2
	if err := c.Validate(); err == nil {
		t.Fatal("bad move probability accepted")
	}
	c = multicellConfig()
	c.Scheme = "bogus"
	if _, err := Run(c); err == nil {
		t.Fatal("bogus scheme ran")
	}
	// Every layer that wires one channel or one server is rejected with
	// more than one cell, naming the layer; each is valid with one.
	for _, l := range []struct {
		name  string
		apply func(*Config)
	}{
		{"Faults.UpLoss", func(c *Config) { c.Faults.UpLoss = faults.Bernoulli(0.1) }},
		{"Faults.CrashMTBF", func(c *Config) { c.Faults.CrashMTBF, c.Faults.CrashMTTR = 2000, 120 }},
		{"Overload queue caps", func(c *Config) { c.Overload.UpQueueCap = 20 }},
		{"Overload queue caps", func(c *Config) { c.Overload.DownQueueCap = 20 }},
		{"Overload admission control", func(c *Config) { c.Overload.ServerPendingCap = 16 }},
		{"Overload admission control", func(c *Config) { c.Overload.Coalesce = true }},
		{"Delivery", func(c *Config) { c.Delivery = delivery.Severity(1) }},
		{"Churn", func(c *Config) { c.Churn = churn.Severity(1) }},
		{"Metrics", func(c *Config) { c.Metrics = metrics.New() }},
	} {
		c := multicellConfig()
		c.Cells = 2
		c.Faults.Retry = chaosRetry()
		l.apply(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), l.name) {
			t.Errorf("%s with 2 cells: %v", l.name, err)
		}
		c.Cells = 1
		if err := c.Validate(); err != nil {
			t.Errorf("%s with 1 cell: %v", l.name, err)
		}
	}
}

func TestMulticellMobilityCostsAdaptivesLittle(t *testing.T) {
	// Handoffs look like long disconnections to the schemes; the adaptive
	// methods must keep salvaging (not dropping) across them.
	c := multicellConfig()
	c.Scheme = "aaw"
	c.MeanDisc = 1000 // well past the window
	c.MoveProb = 1    // every disconnection is a handoff
	r := mustRun(t, c)
	if r.Handoffs == 0 {
		t.Fatal("no handoffs")
	}
	if r.Salvages == 0 {
		t.Fatal("aaw never salvaged across handoffs")
	}
}

// TestMulticellClientSettings: the client-side settings apply in every
// cell. Report loss, the uplink retry policy and spans all take effect
// in a three-cell run with handoffs, and the run passes its audit.
func TestMulticellClientSettings(t *testing.T) {
	c := multicellConfig()
	c.Cells = 3
	c.MoveProb = 0.5
	c.Faults.DownLoss = faults.Bernoulli(0.1)
	c.Faults.Retry = chaosRetry()
	c.Spans = &SpanOptions{}
	r := mustRun(t, c)
	if r.ConsistencyViolations != 0 || r.Handoffs == 0 || r.ReportsLost == 0 {
		t.Fatalf("stale reads %d, handoffs %d, reports lost %d",
			r.ConsistencyViolations, r.Handoffs, r.ReportsLost)
	}
	if r.Spans == nil || r.Spans.Terminal() == 0 {
		t.Fatalf("spans not applied: %+v", r.Spans)
	}
}
