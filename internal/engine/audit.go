package engine

import "fmt"

// Audit checks a completed run against the stale-read checker's verdict
// and every accounting identity the engine promises, returning an error
// that names the first one broken (nil for a healthy run):
//
//   - no stale reads (meaningful when Config.ConsistencyCheck is set);
//   - issued == answered + timed_out + shed + in_flight;
//   - Disconnections == StormDisconnects + SoloDisconnects;
//   - ClientCrashes == RestartsWarm + RestartsCold + CrashedAtEnd, with
//     SnapshotRejects <= RestartsCold, Salvages >= RestartsWarm and
//     Drops >= RestartsCold;
//   - each bounded queue's peak within its cap, when the cap is set;
//   - with spans, the span ledger reconciles with the query counters
//     and every phase decomposition sums to its total within 1e-6 s;
//   - no handoffs with a single cell.
//
// Sweeps, tests and the commands call it, so the identities are checked
// in one place.
func Audit(r *Results) error {
	s, o := r.Config.Scheme, r.Config.Overload
	switch {
	case r.ConsistencyViolations > 0:
		return fmt.Errorf("%s: %d stale read(s); first: %v", s, r.ConsistencyViolations, r.FirstViolation)
	case r.QueriesIssued != r.QueriesAnswered+r.QueriesTimedOut+r.QueriesShed+r.QueriesInFlight:
		return fmt.Errorf("%s: query identity broken: issued=%d != answered=%d + timed_out=%d + shed=%d + in_flight=%d",
			s, r.QueriesIssued, r.QueriesAnswered, r.QueriesTimedOut, r.QueriesShed, r.QueriesInFlight)
	case r.Disconnections != r.StormDisconnects+r.SoloDisconnects:
		return fmt.Errorf("%s: disconnect identity broken: total=%d != storm=%d + solo=%d",
			s, r.Disconnections, r.StormDisconnects, r.SoloDisconnects)
	case r.ClientCrashes != r.RestartsWarm+r.RestartsCold+r.CrashedAtEnd:
		return fmt.Errorf("%s: crash identity broken: crashes=%d != warm=%d + cold=%d + down_at_end=%d",
			s, r.ClientCrashes, r.RestartsWarm, r.RestartsCold, r.CrashedAtEnd)
	case r.SnapshotRejects > r.RestartsCold:
		return fmt.Errorf("%s: snapshot rejects %d exceed cold restarts %d", s, r.SnapshotRejects, r.RestartsCold)
	case r.Salvages < r.RestartsWarm:
		return fmt.Errorf("%s: salvages %d below warm restarts %d", s, r.Salvages, r.RestartsWarm)
	case r.Drops < r.RestartsCold:
		return fmt.Errorf("%s: drops %d below cold restarts %d", s, r.Drops, r.RestartsCold)
	case o.UpQueueCap > 0 && r.UpPeakQueue > o.UpQueueCap:
		return fmt.Errorf("%s: uplink peak queue %d exceeds cap %d", s, r.UpPeakQueue, o.UpQueueCap)
	case o.DownQueueCap > 0 && r.DownPeakQueue > o.DownQueueCap:
		return fmt.Errorf("%s: downlink peak queue %d exceeds cap %d", s, r.DownPeakQueue, o.DownQueueCap)
	case r.Config.Cells <= 1 && r.Handoffs != 0:
		return fmt.Errorf("%s: %d handoffs in a single cell", s, r.Handoffs)
	}
	if r.Spans != nil {
		if err := r.Spans.Identity(r.QueriesIssued, r.QueriesAnswered,
			r.QueriesTimedOut, r.QueriesShed, r.QueriesInFlight); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		if r.Spans.MaxResidual > 1e-6 {
			return fmt.Errorf("%s: span phase residual %g s exceeds 1e-6 s", s, r.Spans.MaxResidual)
		}
	}
	return nil
}
