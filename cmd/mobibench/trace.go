package main

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/workload"
)

// stride is the sampling period of the traced pass: every call is
// counted, one call in stride is timed and the timed total is scaled up.
// Timing every call costs up to ~40% on the fan-out workload.
const stride = 16

// layer accumulates one timed call site. The fields are atomics because
// sweep cells call into the same layer from several workers.
type layer struct {
	calls, timed, ns atomic.Int64
}

// sample counts a call and reports whether this one is timed.
func (l *layer) sample() bool { return l.calls.Add(1)%stride == 1 }

func (l *layer) record(start time.Time) {
	l.ns.Add(int64(time.Since(start)))
	l.timed.Add(1)
}

// seconds estimates the layer's total host time from the timed calls.
func (l *layer) seconds() float64 {
	timed := l.timed.Load()
	if timed == 0 {
		return 0
	}
	return float64(l.ns.Load()) / 1e9 * float64(l.calls.Load()) / float64(timed)
}

// tracer times the public interfaces of the simulator's layers from
// outside: the scheme halves through a core.Registry swap, the access
// patterns through wrapped workloads, and each run (a sweep cell) between
// its Configure and Check calls. A nil tracer leaves every run untouched.
type tracer struct {
	buildReport, handleControl, handleReport, handleValidity, sample layer

	mu    sync.Mutex
	cells []float64 // host seconds of each engine.Run, in completion order
}

// withTimedSchemes runs fn with every registered scheme wrapped by a
// timing Scheme, restoring the registry when fn returns or panics. A nil
// tracer just runs fn.
func (tr *tracer) withTimedSchemes(fn func() error) error {
	if tr == nil {
		return fn()
	}
	saved := maps.Clone(core.Registry)
	defer func() {
		clear(core.Registry)
		maps.Copy(core.Registry, saved)
	}()
	for name, s := range saved {
		core.Registry[name] = timedScheme{Scheme: s, tr: tr}
	}
	return fn()
}

// configure plants the cell's start time in c: the query access pattern
// becomes a per-run wrapper carrying it, which finish reads back from
// Results.Config.
func (tr *tracer) configure(c engine.Config) engine.Config {
	if tr == nil {
		return c
	}
	c.Workload.Update = &timedAccess{Access: c.Workload.Update, l: &tr.sample}
	c.Workload.Query = &timedAccess{Access: c.Workload.Query, l: &tr.sample, start: time.Now()}
	return c
}

// finish closes the cell that configure opened for r.
func (tr *tracer) finish(r *engine.Results) {
	if tr == nil {
		return
	}
	a, ok := r.Config.Workload.Query.(*timedAccess)
	if !ok {
		return
	}
	d := time.Since(a.start).Seconds()
	tr.mu.Lock()
	tr.cells = append(tr.cells, d)
	tr.mu.Unlock()
}

// sweep stamps every cell of s: Configure opens it, Check closes it.
func (tr *tracer) sweep(s *exp.Sweep) *exp.Sweep {
	if tr == nil {
		return s
	}
	cp := *s
	cp.Configure = func(x float64) engine.Config { return tr.configure(s.Configure(x)) }
	cp.Check = func(r *engine.Results) error {
		tr.finish(r)
		if s.Check != nil {
			return s.Check(r)
		}
		return nil
	}
	return &cp
}

type timedAccess struct {
	workload.Access
	l     *layer
	start time.Time
}

func (a *timedAccess) Sample(src *rng.Source, k int, dst []int32) []int32 {
	if !a.l.sample() {
		return a.Access.Sample(src, k, dst)
	}
	t := time.Now()
	dst = a.Access.Sample(src, k, dst)
	a.l.record(t)
	return dst
}

type timedScheme struct {
	core.Scheme
	tr *tracer
}

func (s timedScheme) NewServer(p core.Params) core.ServerSide {
	return &timedServer{inner: s.Scheme.NewServer(p), tr: s.tr}
}

func (s timedScheme) NewClient(p core.Params) core.ClientSide {
	return &timedClient{inner: s.Scheme.NewClient(p), tr: s.tr}
}

type timedServer struct {
	inner core.ServerSide
	tr    *tracer
}

func (t *timedServer) BuildReport(d *db.Database, now float64) report.Report {
	l := &t.tr.buildReport
	if !l.sample() {
		return t.inner.BuildReport(d, now)
	}
	start := time.Now()
	r := t.inner.BuildReport(d, now)
	l.record(start)
	return r
}

func (t *timedServer) HandleControl(d *db.Database, msg *core.ControlMsg, now float64) *report.ValidityReport {
	l := &t.tr.handleControl
	if !l.sample() {
		return t.inner.HandleControl(d, msg, now)
	}
	start := time.Now()
	v := t.inner.HandleControl(d, msg, now)
	l.record(start)
	return v
}

// OnServerCrash forwards the crash to server sides that keep in-memory
// state; the server finds it on the wrapper by type assertion.
func (t *timedServer) OnServerCrash() {
	if cr, ok := t.inner.(core.CrashRecoverable); ok {
		cr.OnServerCrash()
	}
}

type timedClient struct {
	inner core.ClientSide
	tr    *tracer
}

func (t *timedClient) HandleReport(st *core.ClientState, r report.Report, now float64) core.Outcome {
	l := &t.tr.handleReport
	if !l.sample() {
		return t.inner.HandleReport(st, r, now)
	}
	start := time.Now()
	out := t.inner.HandleReport(st, r, now)
	l.record(start)
	return out
}

func (t *timedClient) HandleValidity(st *core.ClientState, v *report.ValidityReport, now float64) core.Outcome {
	l := &t.tr.handleValidity
	if !l.sample() {
		return t.inner.HandleValidity(st, v, now)
	}
	start := time.Now()
	out := t.inner.HandleValidity(st, v, now)
	l.record(start)
	return out
}
