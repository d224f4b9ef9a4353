package workload

import (
	"math"
	"testing"

	"mobicache/internal/rng"
)

func distinctInRange(t *testing.T, ids []int32, n int) {
	t.Helper()
	seen := make(map[int32]bool)
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			t.Fatalf("id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d in %v", id, ids)
		}
		seen[id] = true
	}
}

func TestUniformAccess(t *testing.T) {
	src := rng.New(1)
	a := UniformAccess{N: 50}
	for trial := 0; trial < 100; trial++ {
		ids := a.Sample(src, 10, nil)
		if len(ids) != 10 {
			t.Fatalf("len = %d", len(ids))
		}
		distinctInRange(t, ids, 50)
	}
	if a.Name() != "uniform" {
		t.Fatal("name")
	}
}

func TestUniformAccessClampsK(t *testing.T) {
	src := rng.New(2)
	a := UniformAccess{N: 5}
	ids := a.Sample(src, 10, nil)
	if len(ids) != 5 {
		t.Fatalf("len = %d, want clamped to N", len(ids))
	}
	distinctInRange(t, ids, 5)
}

func TestHotColdSkew(t *testing.T) {
	src := rng.New(3)
	a := HotColdAccess{N: 10000, HotLo: 0, HotHi: 99, HotProb: 0.8}
	hot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		ids := a.Sample(src, 1, nil)
		if ids[0] <= 99 {
			hot++
		}
	}
	frac := float64(hot) / trials
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
	if a.Name() != "hotcold" {
		t.Fatal("name")
	}
}

func TestHotColdColdAvoidsHotRegion(t *testing.T) {
	src := rng.New(4)
	a := HotColdAccess{N: 200, HotLo: 50, HotHi: 99, HotProb: 0}
	for i := 0; i < 2000; i++ {
		ids := a.Sample(src, 3, nil)
		distinctInRange(t, ids, 200)
		for _, id := range ids {
			if id >= 50 && id <= 99 {
				t.Fatalf("cold draw landed in hot region: %d", id)
			}
		}
	}
}

func TestHotColdAllHot(t *testing.T) {
	src := rng.New(5)
	a := HotColdAccess{N: 100, HotLo: 0, HotHi: 99, HotProb: 0}
	// Degenerate: the whole database is hot, cold region empty.
	ids := a.Sample(src, 5, nil)
	distinctInRange(t, ids, 100)
	if len(ids) != 5 {
		t.Fatalf("len = %d", len(ids))
	}
}

func TestHotColdDistinct(t *testing.T) {
	src := rng.New(6)
	a := HotColdAccess{N: 10000, HotLo: 0, HotHi: 99, HotProb: 0.8}
	for i := 0; i < 200; i++ {
		ids := a.Sample(src, 19, nil)
		if len(ids) != 19 {
			t.Fatalf("len = %d", len(ids))
		}
		distinctInRange(t, ids, 10000)
	}
}

func TestZipfAccess(t *testing.T) {
	src := rng.New(7)
	a := ZipfAccess{Z: rng.NewZipf(1000, 0.95)}
	counts := make([]int, 1000)
	for i := 0; i < 5000; i++ {
		ids := a.Sample(src, 5, nil)
		distinctInRange(t, ids, 1000)
		for _, id := range ids {
			counts[id]++
		}
	}
	if counts[0] <= counts[500] {
		t.Fatalf("no skew: head=%d mid=%d", counts[0], counts[500])
	}
	if a.Name() != "zipf(0.95)" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestUniformWorkloadShape(t *testing.T) {
	w := Uniform(10000)
	if w.Name != "UNIFORM" {
		t.Fatal("name")
	}
	if w.QueryItems.Mean() != 10 || w.UpdateItems.Mean() != 5 {
		t.Fatalf("means: q=%v u=%v (Table 1 wants 10 and 5)",
			w.QueryItems.Mean(), w.UpdateItems.Mean())
	}
}

func TestHotColdWorkloadShape(t *testing.T) {
	w := HotCold(10000)
	hc := w.Query.(HotColdAccess)
	if hc.HotLo != 0 || hc.HotHi != 99 || hc.HotProb != 0.8 {
		t.Fatalf("hot region = %+v", hc)
	}
	if _, ok := w.Update.(UniformAccess); !ok {
		t.Fatal("HOTCOLD updates must stay uniform (Table 2)")
	}
}

func TestHotColdTinyDatabase(t *testing.T) {
	w := HotCold(50)
	hc := w.Query.(HotColdAccess)
	if hc.HotHi != 49 {
		t.Fatalf("hot region not clamped: %+v", hc)
	}
	src := rng.New(8)
	ids := w.Query.Sample(src, 10, nil)
	distinctInRange(t, ids, 50)
}

func TestZipfWorkloadShape(t *testing.T) {
	w := Zipf(100, 0.5)
	if w.Name != "ZIPF-0.50" {
		t.Fatalf("name = %q", w.Name)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"uniform", "UNIFORM"},
		{"UNIFORM", "UNIFORM"},
		{"hotcold", "HOTCOLD"},
		{"HOTCOLD", "HOTCOLD"},
		{"zipf:0.8", "ZIPF-0.80"},
		{"ZIPF-0.80", "ZIPF-0.80"},
		{"zipf:1.2", "ZIPF-1.20"},
	}
	for _, c := range cases {
		w, err := Parse(c.in, 1000)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if w.Name != c.want {
			t.Fatalf("Parse(%q).Name = %q, want %q", c.in, w.Name, c.want)
		}
		if w.Query == nil || w.Update == nil {
			t.Fatalf("Parse(%q) returned incomplete workload", c.in)
		}
	}
	// Canonical names round-trip: Parse(w.Name) reproduces the workload.
	for _, w := range []Workload{Uniform(500), HotCold(500), Zipf(500, 0.95)} {
		again, err := Parse(w.Name, 500)
		if err != nil {
			t.Fatalf("Parse(%q): %v", w.Name, err)
		}
		if again.Name != w.Name {
			t.Fatalf("round trip %q -> %q", w.Name, again.Name)
		}
	}
	for _, bad := range []string{"", "bogus", "zipf:", "zipf:x", "zipf:-1", "zipf:0"} {
		if _, err := Parse(bad, 1000); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestItemsBoundsSample pins Items as the id space Sample draws from:
// every pattern of every parsed workload reports its database size and
// samples inside it, and a hot region reaching past N widens the space.
func TestItemsBoundsSample(t *testing.T) {
	src := rng.New(9)
	for _, name := range []string{"uniform", "hotcold", "zipf:0.8"} {
		for _, n := range []int{1, 64, 1000} {
			w, err := Parse(name, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []Access{w.Query, w.Update} {
				if a.Items() != n {
					t.Fatalf("%s over %d items: %s reports %d", name, n, a.Name(), a.Items())
				}
				for trial := 0; trial < 50; trial++ {
					distinctInRange(t, a.Sample(src, 10, nil), a.Items())
				}
			}
		}
	}
	wide := HotColdAccess{N: 10, HotLo: 5, HotHi: 19, HotProb: 1}
	if wide.Items() != 20 {
		t.Fatalf("hot region to 19 over 10 items: Items %d, want 20", wide.Items())
	}
	for trial := 0; trial < 50; trial++ {
		distinctInRange(t, wide.Sample(src, 5, nil), wide.Items())
	}
}
