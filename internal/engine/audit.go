package engine

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// audit checks a completed run against the stale-read checker's verdict
// and every accounting identity the engine promises, returning an error
// that names the first one broken (nil for a healthy run):
//
//   - no stale reads (meaningful when Config.ConsistencyCheck is set);
//   - every numeric Results field and map entry finite and non-negative;
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
// Run calls it on every run it completes, so the identities are checked
// in one place.
func audit(r *Results) error {
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
	if err := checkNonNegative(r); err != nil {
		return fmt.Errorf("%s: %w", s, err)
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

// checkNonNegative names the first numeric field of Results, or entry of
// one of its maps in key order, that is negative or not finite.
// Reflection keeps the check total: a counter added to Results later is
// covered the day it appears.
func checkNonNegative(r *Results) error {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if bad(f) {
			return fmt.Errorf("Results.%s = %v, want finite and >= 0", name, f)
		}
		if f.Kind() == reflect.Map {
			keys := f.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				if e := f.MapIndex(k); bad(e) {
					return fmt.Errorf("Results.%s[%v] = %v, want finite and >= 0", name, k, e)
				}
			}
		}
	}
	return nil
}

// bad reports whether v is a negative integer or a float that is
// negative, NaN or +Inf; other kinds are never bad.
func bad(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return v.Int() < 0
	case reflect.Float64:
		return !(v.Float() >= 0) || math.IsInf(v.Float(), 1)
	}
	return false
}
