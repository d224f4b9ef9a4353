// Package stats provides the statistics collectors used by the simulator:
// observation tallies and fixed-bin histograms, plus batch-means
// confidence intervals for steady-state output analysis. It plays the
// role of CSIM's built-in statistics facilities in the original paper's
// toolchain.
package stats

import "math"

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

// Histogram is a fixed-width bin histogram over [Lo, Hi). Observations
// below Lo count as underflow; those at or above Hi count only in N.
type Histogram struct {
	Lo, Hi   float64
	bins     []int64
	under    int64
	observed int64
}

// NewHistogram creates a histogram with n equal bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, n)}
}

// Reset zeroes every bin and the under/observed counts in place, keeping
// the shape and the bin storage.
func (h *Histogram) Reset() {
	clear(h.bins)
	h.under, h.observed = 0, 0
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observed++
	switch {
	case v < h.Lo:
		h.under++
	case v >= h.Hi:
		// Overflow: counted in observed alone.
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

// Under reports observations below Lo.
func (h *Histogram) Under() int64 { return h.under }

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
