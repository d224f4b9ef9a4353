package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mobicache/internal/engine"
)

// audit checks one completed run: the stale-read checker was armed and
// found nothing, and every accounting identity the engine promises holds.
func audit(r *engine.Results) error {
	switch {
	case !r.Config.ConsistencyCheck:
		return fmt.Errorf("%s: stale-read checker not armed", r.Config.Scheme)
	case r.ConsistencyViolations > 0:
		return fmt.Errorf("%s: %d stale read(s); first: %v",
			r.Config.Scheme, r.ConsistencyViolations, r.FirstViolation)
	case r.QueriesIssued != r.QueriesAnswered+r.QueriesTimedOut+r.QueriesShed+r.QueriesInFlight:
		return fmt.Errorf("%s: issued=%d != answered=%d + timed_out=%d + shed=%d + in_flight=%d",
			r.Config.Scheme, r.QueriesIssued, r.QueriesAnswered, r.QueriesTimedOut,
			r.QueriesShed, r.QueriesInFlight)
	case r.Disconnections != r.StormDisconnects+r.SoloDisconnects:
		return fmt.Errorf("%s: disconnections=%d != storm=%d + solo=%d",
			r.Config.Scheme, r.Disconnections, r.StormDisconnects, r.SoloDisconnects)
	case r.ClientCrashes != r.RestartsWarm+r.RestartsCold+r.CrashedAtEnd:
		return fmt.Errorf("%s: crashes=%d != warm=%d + cold=%d + down_at_end=%d",
			r.Config.Scheme, r.ClientCrashes, r.RestartsWarm, r.RestartsCold, r.CrashedAtEnd)
	}
	if r.Spans != nil {
		if err := r.Spans.Identity(r.QueriesIssued, r.QueriesAnswered,
			r.QueriesTimedOut, r.QueriesShed, r.QueriesInFlight); err != nil {
			return fmt.Errorf("%s: %w", r.Config.Scheme, err)
		}
		if r.Spans.MaxResidual > 1e-6 {
			return fmt.Errorf("%s: span phase residual %g s exceeds 1e-6 s",
				r.Config.Scheme, r.Spans.MaxResidual)
		}
	}
	return nil
}

// digest is a SHA-256 over every Results field except Config (which holds
// the benchmark's own wrappers when traced). encoding/json writes map keys
// sorted and floats in shortest round-trip form, so equal digests mean
// bit-identical results.
func digest(r *engine.Results) (string, error) {
	cp := *r
	cp.Config = engine.Config{}
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", fmt.Errorf("digest %s: %w", r.Config.Scheme, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkRep audits every run of a rep and compares its digests with want,
// the warm-up rep's, filling want when it is empty. It returns the
// number of runs that failed and the first failure.
func checkRep(runs []*engine.Results, want *[]string) (int, error) {
	fresh := len(*want) == 0
	if !fresh && len(*want) != len(runs) {
		return len(runs), fmt.Errorf("rep produced %d runs, the warm-up rep %d", len(runs), len(*want))
	}
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for i, r := range runs {
		d, err := digest(r)
		if err != nil {
			fail(err)
		} else if err := audit(r); err != nil {
			fail(err)
		} else if !fresh && d != (*want)[i] {
			fail(fmt.Errorf("%s run %d: digest %.12s differs from the warm-up rep's %.12s",
				r.Config.Scheme, i, d, (*want)[i]))
		}
		if fresh {
			*want = append(*want, d)
		}
	}
	return failed, first
}
