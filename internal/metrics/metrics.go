// Package metrics is the simulator's time-series instrumentation layer:
// a registry of named columns that the engine samples on every
// broadcast-interval boundary into a per-run timeline (queries
// completed, hit ratio, the report kind and bits the server chose, the
// adjusted window w', channel utilization, retries, fault and recovery
// events). Counts and levels are polled from the tallies the simulator
// already keeps (GaugeFunc, DeltaFunc, LabelFunc); only distributions
// are pushed, into a Histogram.
//
// The package obeys the repository's determinism contract (DESIGN.md §7
// and §9): it never reads the wall clock, never draws randomness, and
// never schedules kernel events — sampling rides the engine's existing
// per-period tick. Histogram and the registry itself are nil-safe,
// exactly like trace.Tracer: model code calls Observe unconditionally,
// and with observability disabled that call is an allocation-free no-op,
// so pinned golden results stay bit-identical.
package metrics

import (
	"fmt"
	"io"
	"strconv"

	"mobicache/internal/stats"
)

// Histogram is a per-interval distribution instrument: observations
// accumulate within one sampling interval, the registered quantiles are
// emitted at the boundary, and the histogram resets for the next
// interval. All methods are nil-safe no-ops.
type Histogram struct {
	h *stats.Histogram
}

// Observe records one value into the current interval.
//
// Hot path: fires per observation; the underlying bins are fixed-size,
// so nothing here allocates.
//
//mobicache:hot
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Observe(v)
}

// column is one registered timeline column.
type column struct {
	name string
	// Exactly one of the sources below is set.
	hist  *Histogram
	q     float64 // quantile when hist != nil
	poll  func() float64
	label func() string
	// delta samples the source as the change since the previous sample,
	// clamped at zero (stat resets, e.g. at a warmup boundary, must not
	// produce negative rates).
	delta bool
	prev  float64
}

// Registry collects instruments and their sampled time series. Create one
// with New, register columns before the run, and let the engine call
// Sample at each broadcast-interval boundary. A nil *Registry is disabled:
// Histogram returns a nil instrument, and every other registration and
// Sample are no-ops.
type Registry struct {
	cols    []*column
	times   []float64
	rows    [][]float64
	labels  [][]string
	nNum    int
	nLab    int
	sampled bool
}

// New creates an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) add(c *column) {
	if r.sampled {
		panic("metrics: column " + c.name + " registered after sampling started")
	}
	for _, old := range r.cols {
		if old.name == c.name {
			panic("metrics: duplicate column " + c.name)
		}
	}
	r.cols = append(r.cols, c)
	if c.label != nil {
		r.nLab++
	} else {
		r.nNum++
	}
}

// GaugeFunc registers a polled column: f is evaluated at each sample.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil {
		return
	}
	r.add(&column{name: name, poll: f})
}

// DeltaFunc registers a polled cumulative source sampled as a
// per-interval delta (clamped at zero across stat resets).
func (r *Registry) DeltaFunc(name string, f func() float64) {
	if r == nil {
		return
	}
	r.add(&column{name: name, poll: f, delta: true})
}

// LabelFunc registers a string-valued column (e.g. the report kind the
// server chose this interval), polled at each sample.
func (r *Registry) LabelFunc(name string, f func() string) {
	if r == nil {
		return
	}
	r.add(&column{name: name, label: f})
}

// Histogram registers a per-interval distribution over [lo, hi) with n
// bins, emitting one column per requested quantile, named
// "<name>_p<100q>" (e.g. resp_p95). The histogram resets at every sample
// boundary so the quantiles describe that interval alone.
func (r *Registry) Histogram(name string, lo, hi float64, n int, quantiles ...float64) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{h: stats.NewHistogram(lo, hi, n)}
	for _, q := range quantiles {
		r.add(&column{
			name: fmt.Sprintf("%s_p%g", name, q*100),
			hist: h,
			q:    q,
		})
	}
	return h
}

// Sample appends one timeline row at simulated time t. The engine calls
// it from its existing per-period tick, so enabling metrics schedules no
// events of its own.
func (r *Registry) Sample(t float64) {
	if r == nil {
		return
	}
	r.sampled = true
	row := make([]float64, 0, r.nNum)
	var labs []string
	if r.nLab > 0 {
		labs = make([]string, 0, r.nLab)
	}
	for _, c := range r.cols {
		switch {
		case c.label != nil:
			labs = append(labs, c.label())
		case c.hist != nil:
			row = append(row, c.hist.h.Quantile(c.q))
		default:
			v := c.poll()
			if c.delta {
				d := v - c.prev
				c.prev = v
				if d < 0 {
					d = 0
				}
				v = d
			}
			row = append(row, v)
		}
	}
	// A histogram may back several quantile columns, so resets wait until
	// the whole row is built; a second in-place reset is a no-op.
	for _, c := range r.cols {
		if c.hist != nil {
			c.hist.h.Reset()
		}
	}
	r.times = append(r.times, t)
	r.rows = append(r.rows, row)
	r.labels = append(r.labels, labs)
}

// Len reports the number of samples taken.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.times)
}

// Times returns the sample times (aliased, do not modify).
func (r *Registry) Times() []float64 {
	if r == nil {
		return nil
	}
	return r.times
}

// Names returns every column name in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = c.name
	}
	return names
}

// Column returns the sampled series of a numeric column, or nil if the
// name is unknown or names a label column.
func (r *Registry) Column(name string) []float64 {
	if r == nil {
		return nil
	}
	idx := 0
	for _, c := range r.cols {
		if c.label != nil {
			continue
		}
		if c.name == name {
			out := make([]float64, len(r.rows))
			for i, row := range r.rows {
				out[i] = row[idx]
			}
			return out
		}
		idx++
	}
	return nil
}

// LabelColumn returns the sampled series of a label column, or nil.
func (r *Registry) LabelColumn(name string) []string {
	if r == nil {
		return nil
	}
	idx := 0
	for _, c := range r.cols {
		if c.label == nil {
			continue
		}
		if c.name == name {
			out := make([]string, len(r.labels))
			for i, labs := range r.labels {
				out[i] = labs[idx]
			}
			return out
		}
		idx++
	}
	return nil
}

// WriteCSV renders the timeline: a header row ("t" plus every column in
// registration order) followed by one row per sample. Floats are written
// with enough precision to round-trip through strconv.ParseFloat.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b []byte
	b = append(b, 't')
	for _, c := range r.cols {
		b = append(b, ',')
		b = append(b, c.name...)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	for i := range r.times {
		b = b[:0]
		b = strconv.AppendFloat(b, r.times[i], 'g', -1, 64)
		num, lab := 0, 0
		for _, c := range r.cols {
			b = append(b, ',')
			if c.label != nil {
				b = append(b, r.labels[i][lab]...)
				lab++
			} else {
				b = strconv.AppendFloat(b, r.rows[i][num], 'g', -1, 64)
				num++
			}
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
