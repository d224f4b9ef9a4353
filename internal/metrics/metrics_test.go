package metrics

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(1)
}

func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	if r.Histogram("c", 0, 1, 4, 0.5) != nil {
		t.Fatal("nil registry returned live instruments")
	}
	r.GaugeFunc("d", func() float64 { return 1 })
	r.DeltaFunc("e", func() float64 { return 1 })
	r.LabelFunc("f", func() string { return "x" })
	r.Sample(1)
	if r.Len() != 0 || r.Times() != nil || r.Names() != nil ||
		r.Column("a") != nil || r.LabelColumn("f") != nil {
		t.Fatal("nil registry holds data")
	}
	if err := r.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledHotPathAllocs is the observability no-alloc guard: with
// instrumentation off (a nil histogram, as model code sees it when no
// registry is configured), the hot-path call must not allocate.
func TestDisabledHotPathAllocs(t *testing.T) {
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocate %.1f times per call set", allocs)
	}
}

// TestCounterDeltaSampling: a polled cumulative counter is sampled as
// per-interval deltas.
func TestCounterDeltaSampling(t *testing.T) {
	r := New()
	var n int64
	r.DeltaFunc("queries", func() float64 { return float64(n) })
	n += 5
	r.Sample(10)
	n += 3
	r.Sample(20)
	r.Sample(30) // idle interval
	got := r.Column("queries")
	want := []float64{5, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queries = %v, want %v", got, want)
		}
	}
}

func TestGaugeAndFuncs(t *testing.T) {
	r := New()
	cum := 0.0
	r.GaugeFunc("poll", func() float64 { return cum * 2 })
	r.DeltaFunc("delta", func() float64 { return cum })
	cum = 10
	r.Sample(1)
	cum = 4 // simulated stat reset: delta clamps at zero
	r.Sample(2)
	if got := r.Column("poll"); got[0] != 20 || got[1] != 8 {
		t.Fatalf("poll = %v", got)
	}
	if got := r.Column("delta"); got[0] != 10 || got[1] != 0 {
		t.Fatalf("delta = %v (reset must clamp to 0)", got)
	}
}

func TestHistogramQuantileColumnsReset(t *testing.T) {
	r := New()
	h := r.Histogram("resp", 0, 100, 100, 0.5, 0.95)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	r.Sample(1)
	// Second interval: empty histogram (reset) must report zeros.
	r.Sample(2)
	p50 := r.Column("resp_p50")
	p95 := r.Column("resp_p95")
	if p50 == nil || p95 == nil {
		t.Fatalf("missing quantile columns; have %v", r.Names())
	}
	if p50[0] < 45 || p50[0] > 55 || p95[0] < 90 || p95[0] > 100 {
		t.Fatalf("interval 1 quantiles p50=%v p95=%v", p50[0], p95[0])
	}
	if p50[1] != 0 || p95[1] != 0 {
		t.Fatalf("histogram not reset between intervals: p50=%v p95=%v", p50[1], p95[1])
	}
}

func TestLabelColumn(t *testing.T) {
	r := New()
	kind := "A"
	r.LabelFunc("kind", func() string { return kind })
	r.DeltaFunc("n", func() float64 { return 0 })
	r.Sample(1)
	kind = "B"
	r.Sample(2)
	got := r.LabelColumn("kind")
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("kind = %v", got)
	}
	if r.Column("kind") != nil {
		t.Fatal("label column served as numeric")
	}
	if r.LabelColumn("n") != nil {
		t.Fatal("numeric column served as label")
	}
}

func TestRegistrationErrors(t *testing.T) {
	r := New()
	zero := func() float64 { return 0 }
	r.DeltaFunc("dup", zero)
	mustPanic(t, "duplicate name", func() { r.GaugeFunc("dup", zero) })
	r.Sample(1)
	mustPanic(t, "late registration", func() { r.DeltaFunc("late", zero) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestWriteCSVRoundTrip(t *testing.T) {
	r := New()
	n := 0.0
	r.DeltaFunc("n", func() float64 { return n })
	r.LabelFunc("kind", func() string { return "IR(w)" })
	r.GaugeFunc("util", func() float64 { return 0.125 })
	n += 2
	r.Sample(20)
	n++
	r.Sample(40)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(recs))
	}
	header := strings.Join(recs[0], ",")
	if header != "t,n,kind,util" {
		t.Fatalf("header = %q (must preserve registration order)", header)
	}
	if recs[1][0] != "20" || recs[1][1] != "2" || recs[1][2] != "IR(w)" {
		t.Fatalf("row 1 = %v", recs[1])
	}
	// Floats round-trip through ParseFloat exactly.
	v, err := strconv.ParseFloat(recs[1][3], 64)
	if err != nil || v != 0.125 {
		t.Fatalf("util cell %q -> %v, %v", recs[1][3], v, err)
	}
	if recs[2][1] != "1" {
		t.Fatalf("row 2 delta = %v", recs[2])
	}
}
