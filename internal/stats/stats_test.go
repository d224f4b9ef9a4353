package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTallyMoments(t *testing.T) {
	var ta Tally
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		ta.Observe(v)
	}
	if ta.N() != 8 {
		t.Fatalf("n=%d", ta.N())
	}
	if math.Abs(ta.Mean()-5) > 1e-12 {
		t.Fatalf("mean=%v", ta.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(ta.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var=%v", ta.Var())
	}
	if ta.Min() != 2 || ta.Max() != 9 {
		t.Fatalf("min=%v max=%v", ta.Min(), ta.Max())
	}
}

func TestTallyEmpty(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Var() != 0 || ta.Std() != 0 {
		t.Fatal("empty tally not zero")
	}
	ta.Observe(3)
	if ta.Var() != 0 {
		t.Fatal("single-observation variance should be 0")
	}
}

// Property: Welford matches the two-pass computation.
func TestTallyMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var ta Tally
		sum := 0.0
		for _, v := range xs {
			ta.Observe(v)
			sum += v
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, v := range xs {
			ss += (v - mean) * (v - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(wantVar))
		return math.Abs(ta.Mean()-mean) < 1e-6 && math.Abs(ta.Var()-wantVar)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// over counts h's observations at or above Hi: those no bin and no
// underflow holds.
func over(h *Histogram) int64 {
	n := h.N() - h.Under()
	for i := 0; i < h.Bins(); i++ {
		n -= h.Bin(i)
	}
	return n
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	h.Observe(-1)
	h.Observe(99)
	if h.N() != 12 || h.Under() != 1 || over(h) != 1 {
		t.Fatalf("n=%d under=%d over=%d", h.N(), h.Under(), over(h))
	}
	for i := 0; i < h.Bins(); i++ {
		if h.Bin(i) != 1 {
			t.Fatalf("bin %d = %d", i, h.Bin(i))
		}
	}
}

// TestHistogramReset: a reset histogram is indistinguishable from a fresh
// one of the same shape, both empty and after the same observations.
func TestHistogramReset(t *testing.T) {
	h, fresh := NewHistogram(0, 10, 10), NewHistogram(0, 10, 10)
	for _, v := range []float64{-1, 0.5, 3.3, 3.4, 9.9, 99} {
		h.Observe(v)
	}
	h.Reset()
	same := func(when string) {
		t.Helper()
		if h.N() != fresh.N() || h.Under() != fresh.Under() || over(h) != over(fresh) {
			t.Fatalf("%s: n/under/over %d/%d/%d, fresh %d/%d/%d", when,
				h.N(), h.Under(), over(h), fresh.N(), fresh.Under(), over(fresh))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
			if got, want := h.Quantile(q), fresh.Quantile(q); got != want {
				t.Fatalf("%s: quantile(%v) = %v, fresh %v", when, q, got, want)
			}
		}
	}
	same("empty")
	for _, v := range []float64{-2, 1.5, 7.25, 42} {
		h.Observe(v)
		fresh.Observe(v)
	}
	same("refilled")
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 100))
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median=%v", med)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0=%v", q)
	}
}

func TestHistogramEdge(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Observe(math.Nextafter(1, 0)) // just below Hi
	if h.Bin(3) != 1 {
		t.Fatal("near-Hi observation landed in the wrong bin")
	}
	var empty Histogram
	_ = empty
	if NewHistogram(0, 10, 5).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestBatchMeans(t *testing.T) {
	b := NewBatchMeans(10)
	for i := 0; i < 100; i++ {
		b.Observe(5)
	}
	if b.Batches() != 10 {
		t.Fatalf("batches=%d", b.Batches())
	}
	if b.Mean() != 5 {
		t.Fatalf("mean=%v", b.Mean())
	}
	if b.CI95() != 0 {
		t.Fatalf("constant stream CI should be 0, got %v", b.CI95())
	}
}

func TestBatchMeansCI(t *testing.T) {
	b := NewBatchMeans(1)
	b.Observe(1)
	if !math.IsInf(b.CI95(), 1) {
		t.Fatal("single batch CI should be +Inf")
	}
	b.Observe(3)
	ci := b.CI95()
	if ci <= 0 || math.IsInf(ci, 0) {
		t.Fatalf("ci=%v", ci)
	}
}

func TestBatchMeansPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatchMeans(0) did not panic")
		}
	}()
	NewBatchMeans(0)
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(5, 10, 8)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	h := NewHistogram(0, 10, 1)
	h.Observe(3)
	h.Observe(7)
	// With one bin the quantile interpolates across the whole [Lo, Hi)
	// range: q=0.5 lands mid-bin, q=1 at the upper edge.
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("single-bucket Quantile(0.5) = %v, want 5", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("single-bucket Quantile(1) = %v, want 10", got)
	}
	if got := h.Quantile(0); got > 5 {
		t.Fatalf("single-bucket Quantile(0) = %v, want lower half", got)
	}
}

func TestHistogramQuantileUpperBoundClamp(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Observe(50)
	h.Observe(1e9) // far past Hi: counted as overflow
	h.Observe(150) // just past Hi: also overflow
	if over(h) != 2 {
		t.Fatalf("over = %d, want 2", over(h))
	}
	// Quantiles that land in the overflow mass clamp to Hi rather than
	// extrapolating beyond the histogram range.
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("Quantile(0.99) = %v, want Hi (100)", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %v, want Hi (100)", got)
	}
	// The in-range observation still anchors the low quantiles.
	if got := h.Quantile(0.2); got < 50 || got > 60 {
		t.Fatalf("Quantile(0.2) = %v, want within bin of 50", got)
	}
}

func TestHistogramQuantileUnderflowMapsToLo(t *testing.T) {
	h := NewHistogram(10, 20, 5)
	h.Observe(-3)
	h.Observe(5)
	h.Observe(15)
	if h.Under() != 2 {
		t.Fatalf("under = %d, want 2", h.Under())
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("Quantile(0.5) = %v, want Lo (10) while in underflow mass", got)
	}
}
