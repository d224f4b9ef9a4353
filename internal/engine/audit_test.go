package engine

import (
	"math"
	"strings"
	"testing"

	"mobicache/internal/core"
	"mobicache/internal/overload"
	"mobicache/internal/report"
	"mobicache/internal/span"
	"mobicache/internal/workload"
)

// auditedResults is a healthy run in miniature: every identity audit
// checks holds with equality or at its bound, so breaking any one by one
// fails it.
func auditedResults() *Results {
	return &Results{
		Config: Config{Scheme: "aaw", Cells: 1,
			Overload: overload.Config{UpQueueCap: 5, DownQueueCap: 5}},
		QueriesIssued: 10, QueriesAnswered: 6, QueriesTimedOut: 2, QueriesShed: 1, QueriesInFlight: 1,
		Disconnections: 5, StormDisconnects: 2, SoloDisconnects: 3,
		ClientCrashes: 4, RestartsWarm: 2, RestartsCold: 1, CrashedAtEnd: 1,
		SnapshotRejects: 1, Salvages: 2, Drops: 1,
		UpPeakQueue: 5, DownPeakQueue: 5,
		ReportBits: map[string]float64{"TS": 64},
		Spans:      &span.Summary{Answered: 6, TimedOut: 2, Shed: 1, Open: 1, MaxResidual: 1e-6},
	}
}

func TestAuditNamesEachIdentity(t *testing.T) {
	if err := audit(auditedResults()); err != nil {
		t.Fatalf("healthy results rejected: %v", err)
	}
	for _, tc := range []struct {
		want    string
		perturb func(r *Results)
	}{
		{"stale read", func(r *Results) { r.ConsistencyViolations++ }},
		{"query identity", func(r *Results) { r.QueriesIssued++ }},
		{"disconnect identity", func(r *Results) { r.Disconnections++ }},
		{"crash identity", func(r *Results) { r.ClientCrashes++ }},
		{"snapshot rejects", func(r *Results) { r.SnapshotRejects++ }},
		{"salvages", func(r *Results) { r.Salvages-- }},
		{"drops", func(r *Results) { r.Drops-- }},
		{"uplink peak queue", func(r *Results) { r.UpPeakQueue++ }},
		{"downlink peak queue", func(r *Results) { r.DownPeakQueue++ }},
		{"handoffs in a single cell", func(r *Results) { r.Handoffs++ }},
		{"Results.Retries = -1", func(r *Results) { r.Retries = -1 }},
		{"Results.PeakEventQueue = -1", func(r *Results) { r.PeakEventQueue = -1 }},
		{"Results.HitRatio = NaN", func(r *Results) { r.HitRatio = math.NaN() }},
		{"Results.MaxResponse = +Inf", func(r *Results) { r.MaxResponse = math.Inf(1) }},
		{"Results.ReportBits[TS] = -1", func(r *Results) { r.ReportBits["TS"] = -1 }},
		{"outcome counts", func(r *Results) { r.Spans.Answered++ }},
		{"anomalous", func(r *Results) { r.Spans.Anomalies++ }},
		{"residual", func(r *Results) { r.Spans.MaxResidual *= 2 }},
	} {
		r := auditedResults()
		tc.perturb(r)
		err := audit(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s broken: audit returned %v", tc.want, err)
		}
	}
	// The conditional checks stay quiet when their condition is off.
	for _, tc := range []struct {
		name  string
		relax func(r *Results)
	}{
		{"uncapped queues", func(r *Results) {
			r.Config.Overload = overload.Config{}
			r.UpPeakQueue, r.DownPeakQueue = 99, 99
		}},
		{"handoffs between cells", func(r *Results) { r.Config.Cells, r.Handoffs = 2, 7 }},
		{"no spans", func(r *Results) { r.Spans = nil }},
	} {
		r := auditedResults()
		tc.relax(r)
		if err := audit(r); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// blindClient marks the cache validated through every report without
// reading it, so a cached item goes stale as soon as the server updates
// it.
type blindClient struct{}

func (blindClient) HandleReport(st *core.ClientState, r report.Report, _ float64) core.Outcome {
	st.Tlb = r.Time()
	return core.Outcome{Ready: true}
}

func (blindClient) HandleValidity(*core.ClientState, *report.ValidityReport, float64) core.Outcome {
	panic("blind client: no validity exchange")
}

// blindScheme is ts with a blindClient.
type blindScheme struct{ core.Scheme }

func (blindScheme) Name() string                          { return "blind" }
func (blindScheme) NewClient(core.Params) core.ClientSide { return blindClient{} }

// TestRunReturnsFailedAudit: Run audits every run, and a run that fails
// its audit comes back with its Results, so the caller can show them.
func TestRunReturnsFailedAudit(t *testing.T) {
	core.Registry["blind"] = blindScheme{core.Registry["ts"]}
	defer delete(core.Registry, "blind")
	c := equivBase(1)
	c.Scheme = "blind"
	c.Workload = workload.HotCold(c.DBSize)
	c.MeanUpdate = 10
	r, err := Run(c)
	if err == nil || !strings.Contains(err.Error(), "stale read") {
		t.Fatalf("a blind client passed the audit: %v", err)
	}
	if r == nil || r.ConsistencyViolations == 0 || r.QueriesAnswered == 0 {
		t.Fatalf("the failed run came back without its results: %+v", r)
	}
}
