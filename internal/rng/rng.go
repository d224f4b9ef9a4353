// Package rng provides deterministic pseudo-random number generation and
// the random variates used throughout the simulator.
//
// Every stochastic component of the simulation (the server's update
// process, each client's think/disconnect/query processes, the workload
// generators) draws from its own Source, derived from a single root seed
// with Split. Results are therefore reproducible bit-for-bit from the root
// seed alone, independent of goroutine scheduling or map iteration order.
//
// The generator is xoshiro256**, seeded through SplitMix64, following the
// reference implementation by Blackman and Vigna. It is not cryptographic;
// it is fast, has a 2^256-1 period, and passes BigCrush.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// It is not safe for concurrent use; give each simulated process its own
// Source via Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	st := seed
	s.s0 = splitmix64(&st)
	s.s1 = splitmix64(&st)
	s.s2 = splitmix64(&st)
	s.s3 = splitmix64(&st)
	// All-zero state is the one invalid state for xoshiro; SplitMix64
	// cannot produce four consecutive zeros, but keep the guard explicit.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Split derives an independent child stream identified by stream, as
// Derive does, and returns it on the heap.
func (s *Source) Split(stream uint64) *Source {
	c := s.Derive(stream)
	return &c
}

// Derive returns the independent child stream identified by stream by
// value, for callers that store it in place. Children with distinct
// stream ids, or from parents with distinct seeds, are statistically
// independent for simulation purposes. The parent is not advanced.
func (s *Source) Derive(stream uint64) Source {
	// Mix the parent's state with the stream id through SplitMix64 so that
	// (seed, stream) pairs map to well-separated child states.
	st := s.s0 ^ rotl(s.s2, 17) ^ (stream * 0x9e3779b97f4a7c15)
	var c Source
	c.reseed(splitmix64(&st) ^ stream)
	return c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// DeriveSeed maps a (root, stream) pair to a child seed through
// SplitMix64, the pure-function counterpart of Source.Split. The parallel
// experiment harness uses it to give every replication a seed that
// depends only on its coordinates — never on which worker ran it or in
// what order — so multi-seed sweeps are bit-identical at any worker
// count. Distinct streams under one root, like one stream under distinct
// roots, yield well-separated seeds.
func DeriveSeed(root, stream uint64) uint64 {
	st := root
	_ = splitmix64(&st) // decorrelate seeds that differ only in low bits
	st ^= stream * 0x9e3779b97f4a7c15
	return splitmix64(&st)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	v := s.Uint64()
	bound := uint64(n)
	hi, lo := mul64(v, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			v = s.Uint64()
			hi, lo = mul64(v, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// IntRange returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed variate with the given mean.
// It panics if mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// Inversion. 1-U avoids log(0); U in [0,1) means 1-U in (0,1].
	return -mean * math.Log(1-s.Float64())
}

// Uniform returns a uniformly distributed float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// SampleDistinct draws k distinct ints uniformly from [0, n) and appends
// them to dst, returning the extended slice. It panics if k > n. The
// result order is random but the set is uniform over all k-subsets.
func (s *Source) SampleDistinct(n, k int, dst []int32) []int32 {
	if k > n {
		panic("rng: SampleDistinct with k > n")
	}
	if k <= 0 {
		return dst
	}
	// For the small k / large n regime (queries sample ~10 of thousands of
	// items) rejection against the tail of dst is fastest and allocation
	// free. Fall back to a Floyd sample when density is high.
	if k*4 <= n {
		start := len(dst)
	outer:
		for len(dst)-start < k {
			v := int32(s.Intn(n))
			for _, prev := range dst[start:] {
				if prev == v {
					continue outer
				}
			}
			dst = append(dst, v)
		}
		return dst
	}
	// Floyd's algorithm: uniform k-subset with exactly k draws.
	start := len(dst)
	for j := n - k; j < n; j++ {
		t := int32(s.Intn(j + 1))
		found := false
		for _, prev := range dst[start:] {
			if prev == t {
				found = true
				break
			}
		}
		if found {
			dst = append(dst, int32(j))
		} else {
			dst = append(dst, t)
		}
	}
	return dst
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
