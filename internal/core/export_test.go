package core

import "mobicache/internal/report"

// Fanout exposes the two invalidation walks of applyTSEntries to the
// differential test in package core_test, which needs
// internal/population (an importer of this package) and so cannot live
// in package core.
type Fanout struct{ x tsIndex }

// NewFanout returns the walks over an n-item space, with one index shared
// by every call, as one ClientSide shares it across its clients.
func NewFanout(n int) *Fanout { return &Fanout{x: tsIndex{n: n}} }

// ByCache runs the cache walk against r's index.
func (f *Fanout) ByCache(c Cache, r *report.TSReport) { f.x.invalidateByCache(c, r) }

// ByReport runs the report walk.
func (f *Fanout) ByReport(c Cache, r *report.TSReport) { invalidateByReport(c, r.Entries) }
