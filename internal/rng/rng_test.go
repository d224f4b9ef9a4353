package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams produced %d identical draws out of 100", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed, stream) pairs diverged")
		}
	}
}

// TestDeriveIsSplit pins the child stream: Derive by value and Split on
// the heap are one derivation, and its first draws are those every
// recorded digest was produced with.
func TestDeriveIsSplit(t *testing.T) {
	root := New(9)
	a, b := root.Derive(5), root.Split(5)
	if a != *b {
		t.Fatal("Derive and Split give different children")
	}
	if got := [2]uint64{a.Uint64(), a.Uint64()}; got != [2]uint64{0xb893a8726470a5a9, 0x690f5eed1fecaec9} {
		t.Fatalf("child of (9, 5) draws %#x", got)
	}
	if *root != *New(9) {
		t.Fatal("Derive advanced its parent")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, k = 140000, 7
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[s.Intn(k)]++
	}
	want := float64(n) / k
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn bias: value %d occurred %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntRange(3,9) = %d", v)
		}
	}
	if got := s.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const mean, n = 100.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean %v, want ~%v", got, mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestBoolEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	s := New(19)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) rate %v", p, got)
	}
}

// Property: SampleDistinct always yields k distinct in-range values,
// across both its internal regimes (rejection and Floyd).
func TestSampleDistinctProperty(t *testing.T) {
	s := New(23)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		got := s.SampleDistinct(n, k, nil)
		if len(got) != k {
			return false
		}
		seen := make(map[int32]bool, k)
		for _, v := range got {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctAppends(t *testing.T) {
	s := New(29)
	base := []int32{100, 200}
	got := s.SampleDistinct(50, 3, base)
	if len(got) != 5 || got[0] != 100 || got[1] != 200 {
		t.Fatalf("SampleDistinct did not append: %v", got)
	}
}

func TestSampleDistinctFull(t *testing.T) {
	s := New(31)
	got := s.SampleDistinct(10, 10, nil)
	seen := make(map[int32]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("SampleDistinct(10,10) not a permutation: %v", got)
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleDistinct(k>n) did not panic")
		}
	}()
	New(1).SampleDistinct(3, 4, nil)
}

func TestPerm(t *testing.T) {
	s := New(37)
	dst := make([]int, 20)
	s.Perm(dst)
	seen := make(map[int]bool)
	for _, v := range dst {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestFixedDist(t *testing.T) {
	d := Fixed{N: 5}
	if d.Draw(New(1)) != 5 || d.Mean() != 5 {
		t.Fatal("Fixed distribution broken")
	}
}

func TestUniformIntDist(t *testing.T) {
	d := UniformInt{Lo: 1, Hi: 19}
	if d.Mean() != 10 {
		t.Fatalf("UniformInt mean = %v", d.Mean())
	}
	s := New(41)
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Draw(s)
		if v < 1 || v > 19 {
			t.Fatalf("UniformInt draw %d out of range", v)
		}
		sum += v
	}
	if got := float64(sum) / n; math.Abs(got-10) > 0.1 {
		t.Fatalf("UniformInt empirical mean %v", got)
	}
}

func TestGeometricDist(t *testing.T) {
	d := Geometric{M: 10}
	s := New(43)
	sum := 0
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.Draw(s)
		if v < 1 {
			t.Fatalf("Geometric draw %d < 1", v)
		}
		sum += v
	}
	if got := float64(sum) / n; math.Abs(got-10)/10 > 0.03 {
		t.Fatalf("Geometric empirical mean %v, want ~10", got)
	}
	if (Geometric{M: 0.5}).Mean() != 1 {
		t.Fatal("degenerate Geometric mean")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 0.95)
	s := New(47)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Rank 0 should hold roughly 1/H_100(0.95) of the mass.
	if counts[0] < n/20 {
		t.Fatalf("Zipf head too light: %d", counts[0])
	}
}

func TestZipfUniformTheta0(t *testing.T) {
	z := NewZipf(10, 0)
	s := New(53)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	for r, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Fatalf("Zipf(theta=0) biased at rank %d: %d", r, c)
		}
	}
}

func TestZipfAccessors(t *testing.T) {
	z := NewZipf(42, 0.8)
	if z.N() != 42 || z.Theta() != 0.8 {
		t.Fatal("Zipf accessors broken")
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ x, y, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

// TestDeriveSeed pins the seed-derivation contract the parallel harness
// depends on: a pure function of (root, stream), collision-free over a
// realistic replication grid, and sensitive to both coordinates.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	seen := make(map[uint64]string)
	for root := uint64(0); root < 64; root++ {
		for stream := uint64(0); stream < 256; stream++ {
			s := DeriveSeed(root, stream)
			key := string(rune(root)) + "/" + string(rune(stream))
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and %s both map to %d", root, stream, prev, s)
			}
			seen[s] = key
		}
	}
	if DeriveSeed(1, 1) == DeriveSeed(2, 1) || DeriveSeed(1, 1) == DeriveSeed(1, 2) {
		t.Fatal("DeriveSeed ignores a coordinate")
	}
}

// TestDeriveSeedStreamsIndependent: sources seeded from sibling derived
// seeds produce different output streams.
func TestDeriveSeedStreamsIndependent(t *testing.T) {
	a := New(DeriveSeed(7, 0))
	b := New(DeriveSeed(7, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided on %d of 64 draws", same)
	}
}
