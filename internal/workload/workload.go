// Package workload generates the query and update access patterns of the
// paper's evaluation (Table 2): UNIFORM, where both queries and updates
// draw items uniformly from the whole database, and HOTCOLD, where 80% of
// every client's queries target the hot region (items 1..100) while
// updates stay uniform. A Zipf pattern is included as an extension for
// skew ablations.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mobicache/internal/rng"
)

// Access picks item ids for one operation (query or update transaction).
type Access interface {
	// Sample appends k distinct item ids to dst.
	Sample(src *rng.Source, k int, dst []int32) []int32
	// Name identifies the pattern in result tables.
	Name() string
	// Items is the size of the id space Sample draws from: every id it
	// returns lies in [0, Items()).
	Items() int
}

// UniformAccess draws uniformly from [0, N).
type UniformAccess struct {
	N int
}

// Name implements Access.
func (u UniformAccess) Name() string { return "uniform" }

// Items implements Access.
func (u UniformAccess) Items() int { return u.N }

// Sample implements Access.
func (u UniformAccess) Sample(src *rng.Source, k int, dst []int32) []int32 {
	if k > u.N {
		k = u.N
	}
	return src.SampleDistinct(u.N, k, dst)
}

// HotColdAccess draws from a hot range [HotLo, HotHi] with probability
// HotProb, otherwise from the rest of the database. Item ids follow the
// paper's convention: the hot region is a contiguous id range.
type HotColdAccess struct {
	N            int
	HotLo, HotHi int32 // inclusive id bounds of the hot region
	HotProb      float64
}

// Name implements Access.
func (h HotColdAccess) Name() string { return "hotcold" }

// Items implements Access; a hot region reaching past N widens the space.
func (h HotColdAccess) Items() int { return max(h.N, int(h.HotHi)+1) }

func (h HotColdAccess) hotSize() int { return int(h.HotHi-h.HotLo) + 1 }

// Sample implements Access. Each of the k items independently lands in
// the hot or cold region; duplicates are rejected so the ids are distinct.
func (h HotColdAccess) Sample(src *rng.Source, k int, dst []int32) []int32 {
	if k > h.N {
		k = h.N
	}
	start := len(dst)
outer:
	for len(dst)-start < k {
		var id int32
		if src.Bool(h.HotProb) {
			id = h.HotLo + int32(src.Intn(h.hotSize()))
		} else {
			// Cold region: ids outside [HotLo, HotHi].
			coldSize := h.N - h.hotSize()
			if coldSize <= 0 {
				id = h.HotLo + int32(src.Intn(h.hotSize()))
			} else {
				v := int32(src.Intn(coldSize))
				if v >= h.HotLo {
					v += int32(h.hotSize())
				}
				id = v
			}
		}
		for _, prev := range dst[start:] {
			if prev == id {
				continue outer
			}
		}
		dst = append(dst, id)
	}
	return dst
}

// ZipfAccess draws ids by Zipf-distributed popularity rank (extension).
type ZipfAccess struct {
	Z *rng.Zipf
}

// Name implements Access.
func (z ZipfAccess) Name() string { return fmt.Sprintf("zipf(%.2f)", z.Z.Theta()) }

// Items implements Access.
func (z ZipfAccess) Items() int { return z.Z.N() }

// Sample implements Access.
func (z ZipfAccess) Sample(src *rng.Source, k int, dst []int32) []int32 {
	if k > z.Z.N() {
		k = z.Z.N()
	}
	start := len(dst)
outer:
	for len(dst)-start < k {
		id := int32(z.Z.Draw(src))
		for _, prev := range dst[start:] {
			if prev == id {
				continue outer
			}
		}
		dst = append(dst, id)
	}
	return dst
}

// Workload bundles the query- and update-side access patterns with the
// operation size distributions of Table 1.
type Workload struct {
	// Name labels the workload in result tables.
	Name string
	// Query is the per-client query access pattern.
	Query Access
	// Update is the server update access pattern.
	Update Access
	// QueryItems is the number of data items referenced by a query
	// (Table 1: mean 10).
	QueryItems rng.IntDist
	// UpdateItems is the number of items touched by an update
	// transaction (Table 1: mean 5).
	UpdateItems rng.IntDist
}

// Uniform is the paper's UNIFORM workload over an n-item database.
func Uniform(n int) Workload {
	return Workload{
		Name:        "UNIFORM",
		Query:       UniformAccess{N: n},
		Update:      UniformAccess{N: n},
		QueryItems:  rng.UniformInt{Lo: 1, Hi: 19},
		UpdateItems: rng.UniformInt{Lo: 1, Hi: 9},
	}
}

// HotCold is the paper's HOTCOLD workload: queries hit items 1..100 with
// probability 0.8 (ids 0..99 internally); updates remain uniform.
func HotCold(n int) Workload {
	hotHi := int32(99)
	if int32(n) <= hotHi {
		hotHi = int32(n) - 1
	}
	return Workload{
		Name:        "HOTCOLD",
		Query:       HotColdAccess{N: n, HotLo: 0, HotHi: hotHi, HotProb: 0.8},
		Update:      UniformAccess{N: n},
		QueryItems:  rng.UniformInt{Lo: 1, Hi: 19},
		UpdateItems: rng.UniformInt{Lo: 1, Hi: 9},
	}
}

// Parse builds a workload over an n-item database from a name. It
// accepts both the command-line spellings ("uniform", "hotcold",
// "zipf:0.8") and the canonical Workload.Name forms ("UNIFORM",
// "HOTCOLD", "ZIPF-0.80"), so a run manifest's recorded workload feeds
// straight back in.
func Parse(name string, n int) (Workload, error) {
	switch s := strings.ToLower(name); {
	case s == "uniform":
		return Uniform(n), nil
	case s == "hotcold":
		return HotCold(n), nil
	case strings.HasPrefix(s, "zipf:") || strings.HasPrefix(s, "zipf-"):
		theta, err := strconv.ParseFloat(s[len("zipf:"):], 64)
		if err == nil {
			// Quantize to the 0.01 grid the canonical name records
			// ("ZIPF-%.2f"), so every accepted spelling round-trips
			// exactly through Workload.Name.
			theta = math.Round(theta*100) / 100
		}
		if err != nil || math.IsNaN(theta) || theta <= 0 || theta > 100 {
			return Workload{}, fmt.Errorf("workload: bad zipf parameter in %q", name)
		}
		return Zipf(n, theta), nil
	default:
		return Workload{}, fmt.Errorf("workload: unknown workload %q (want uniform, hotcold, or zipf:theta)", name)
	}
}

// Zipf is an extension workload: Zipf-skewed queries, uniform updates.
func Zipf(n int, theta float64) Workload {
	return Workload{
		Name:        fmt.Sprintf("ZIPF-%.2f", theta),
		Query:       ZipfAccess{Z: rng.NewZipf(n, theta)},
		Update:      UniformAccess{N: n},
		QueryItems:  rng.UniformInt{Lo: 1, Hi: 19},
		UpdateItems: rng.UniformInt{Lo: 1, Hi: 9},
	}
}
