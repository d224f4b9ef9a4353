// Package stats provides the statistics collectors used by the simulator:
// event counters, observation tallies, time-weighted averages and
// histograms, plus batch-means confidence intervals for steady-state
// output analysis. It plays the role of CSIM's built-in statistics
// facilities in the original paper's toolchain.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter accumulates a monotonically growing total (events, bits, ...).
type Counter struct {
	n     int64
	total float64
}

// Add records one occurrence of weight v.
func (c *Counter) Add(v float64) { c.n++; c.total += v }

// Inc records one occurrence of weight 1.
func (c *Counter) Inc() { c.Add(1) }

// Count reports the number of occurrences recorded.
func (c *Counter) Count() int64 { return c.n }

// Total reports the accumulated weight.
func (c *Counter) Total() float64 { return c.total }

// Rate reports total per unit of elapsed, or 0 when elapsed <= 0.
func (c *Counter) Rate(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return c.total / elapsed
}

// Tally accumulates moments of an observation stream using Welford's
// algorithm, which is numerically stable for long runs.
type Tally struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Observe records one observation.
func (t *Tally) Observe(v float64) {
	t.n++
	if t.n == 1 {
		t.min, t.max = v, v
	} else {
		if v < t.min {
			t.min = v
		}
		if v > t.max {
			t.max = v
		}
	}
	delta := v - t.mean
	t.mean += delta / float64(t.n)
	t.m2 += delta * (v - t.mean)
}

// N reports the number of observations.
func (t *Tally) N() int64 { return t.n }

// Mean reports the sample mean, or 0 with no observations.
func (t *Tally) Mean() float64 { return t.mean }

// Var reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (t *Tally) Var() float64 {
	if t.n < 2 {
		return 0
	}
	return t.m2 / float64(t.n-1)
}

// Std reports the sample standard deviation.
func (t *Tally) Std() float64 { return math.Sqrt(t.Var()) }

// Min reports the smallest observation, or 0 with no observations.
func (t *Tally) Min() float64 { return t.min }

// Max reports the largest observation, or 0 with no observations.
func (t *Tally) Max() float64 { return t.max }

// TimeWeighted tracks a piecewise-constant quantity (queue length, cache
// occupancy) and integrates it over simulated time. The first Set call
// anchors the observation window.
type TimeWeighted struct {
	value    float64
	firstT   float64
	lastT    float64
	integral float64
	started  bool
}

// Set records that the tracked quantity changed to v at time now.
func (w *TimeWeighted) Set(v, now float64) {
	if w.started {
		w.integral += w.value * (now - w.lastT)
	} else {
		w.firstT = now
	}
	w.value = v
	w.lastT = now
	w.started = true
}

// Add shifts the tracked quantity by dv at time now.
func (w *TimeWeighted) Add(dv, now float64) { w.Set(w.value+dv, now) }

// Value reports the current quantity.
func (w *TimeWeighted) Value() float64 { return w.value }

// Mean reports the time average over [first observation, now]. With no
// elapsed span it reports the current value.
func (w *TimeWeighted) Mean(now float64) float64 {
	if !w.started || now <= w.firstT {
		return w.value
	}
	total := w.integral + w.value*(now-w.lastT)
	return total / (now - w.firstT)
}

// Histogram is a fixed-width bin histogram over [Lo, Hi); out-of-range
// observations land in the under/over-flow bins.
type Histogram struct {
	Lo, Hi   float64
	bins     []int64
	under    int64
	over     int64
	observed int64
}

// NewHistogram creates a histogram with n equal bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, n)}
}

// Reset zeroes every bin and the under/over/observed counts in place,
// keeping the shape and the bin storage.
func (h *Histogram) Reset() {
	clear(h.bins)
	h.under, h.over, h.observed = 0, 0, 0
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observed++
	switch {
	case v < h.Lo:
		h.under++
	case v >= h.Hi:
		h.over++
	default:
		idx := int(float64(len(h.bins)) * (v - h.Lo) / (h.Hi - h.Lo))
		if idx == len(h.bins) { // guard the v == Hi-epsilon rounding edge
			idx--
		}
		h.bins[idx]++
	}
}

// N reports the total number of observations.
func (h *Histogram) N() int64 { return h.observed }

// Bin reports the count of bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// Bins reports the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// Under reports observations below Lo; Over reports those at or above Hi.
func (h *Histogram) Under() int64 { return h.under }

// Over reports observations at or above Hi.
func (h *Histogram) Over() int64 { return h.over }

// Quantile reports an approximate q-quantile (0..1) assuming observations
// are uniform within each bin. Underflow maps to Lo and overflow to Hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.observed == 0 {
		return 0
	}
	target := q * float64(h.observed)
	cum := float64(h.under)
	if cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.bins))
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + width*(float64(i)+frac)
		}
		cum = next
	}
	return h.Hi
}

// BatchMeans implements the batch-means method for steady-state confidence
// intervals: the observation stream is cut into fixed-size batches and the
// per-batch means are treated as (approximately) independent samples.
type BatchMeans struct {
	batchSize int
	cur       Tally
	batches   []float64
}

// NewBatchMeans creates a collector with the given batch size.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Observe records one observation.
func (b *BatchMeans) Observe(v float64) {
	b.cur.Observe(v)
	if int(b.cur.N()) == b.batchSize {
		b.batches = append(b.batches, b.cur.Mean())
		b.cur = Tally{}
	}
}

// Batches reports the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// Mean reports the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 {
	var t Tally
	for _, m := range b.batches {
		t.Observe(m)
	}
	return t.Mean()
}

// CI95 reports the half-width of an approximate 95% confidence interval
// around Mean, using a normal critical value (adequate for >= 10 batches).
func (b *BatchMeans) CI95() float64 {
	if len(b.batches) < 2 {
		return math.Inf(1)
	}
	var t Tally
	for _, m := range b.batches {
		t.Observe(m)
	}
	return 1.96 * t.Std() / math.Sqrt(float64(len(b.batches)))
}

// Summary is a compact formatted description of a tally, used by the CLIs.
func Summary(name string, t *Tally) string {
	return fmt.Sprintf("%s: n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		name, t.N(), t.Mean(), t.Std(), t.Min(), t.Max())
}

// Median reports the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
