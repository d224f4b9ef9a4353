package engine

import (
	"strings"
	"testing"

	"mobicache/internal/overload"
	"mobicache/internal/span"
)

// auditedResults is a healthy run in miniature: every identity Audit
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
		Spans: &span.Summary{Answered: 6, TimedOut: 2, Shed: 1, Open: 1, MaxResidual: 1e-6},
	}
}

func TestAuditNamesEachIdentity(t *testing.T) {
	if err := Audit(auditedResults()); err != nil {
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
		{"outcome counts", func(r *Results) { r.Spans.Answered++ }},
		{"anomalous", func(r *Results) { r.Spans.Anomalies++ }},
		{"residual", func(r *Results) { r.Spans.MaxResidual *= 2 }},
	} {
		r := auditedResults()
		tc.perturb(r)
		err := Audit(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s broken: Audit returned %v", tc.want, err)
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
		if err := Audit(r); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
