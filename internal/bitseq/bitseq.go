// Package bitseq implements the hierarchical bit-sequences invalidation
// structure of Jing et al. (paper §2.3), used both by the BS baseline and
// as the fallback report of the adaptive AFW/AAW schemes.
//
// The structure is a stack of bit sequences B_n ... B_1 plus a dummy
// timestamp TS(B_0):
//
//   - B_n has one bit per database item; its "1" bits mark the (at most
//     N/2) most recently updated items, all updated after TS(B_n).
//   - Each lower sequence B_k has one bit per "1" bit of B_{k+1}; its own
//     "1" bits mark the (at most) half of those items updated after
//     TS(B_k).
//   - TS(B_0) is the most recent update time: nothing changed after it.
//
// A client that last heard a report at time Tlb picks the deepest
// (smallest) sequence whose timestamp is <= Tlb and invalidates exactly
// the items marked in it. That set always contains every item updated
// after Tlb (soundness: clients never keep a truly stale item) and the
// halving structure bounds over-invalidation, which is what lets BS
// salvage caches after arbitrarily long disconnections without a fixed
// history window.
package bitseq

import (
	"math/bits"

	"mobicache/internal/bitio"
)

// Sequence is one level of the structure.
type Sequence struct {
	// TS is the level timestamp: every marked item was updated after TS.
	TS float64
	// Bits holds Len bits, packed little-endian in uint64 words.
	Bits []uint64
	// Len is the number of valid bits.
	Len int
	// Ones is the number of set bits.
	Ones int
}

func (s *Sequence) get(i int) bool { return s.Bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// set marks bit i, which must be clear.
func (s *Sequence) set(i int) {
	s.Bits[i>>6] |= 1 << (uint(i) & 63)
	s.Ones++
}

// Structure is a complete bit-sequences report payload.
type Structure struct {
	// N is the database size (bits in the top sequence).
	N int
	// Seqs holds the levels from B_n (index 0, N bits) down to the
	// smallest level with at least 2 bits.
	Seqs []Sequence
	// TS0 is the dummy B_0 timestamp: the most recent update time, or
	// negative if the database was never updated.
	TS0 float64
}

// Epoch is the timestamp meaning "before every update". Simulated time is
// non-negative, so -1 sorts before all real update times.
const Epoch = -1.0

// UpdateSource abstracts the server database view the builder needs:
// distinct items in most-recent-update-first order.
type UpdateSource interface {
	// MostRecent visits up to max ever-updated items, most recent first.
	MostRecent(max int, fn func(id int32, ts float64) bool)
	// NewestUpdateTime reports the most recent update time, or negative
	// if nothing was ever updated.
	NewestUpdateTime() float64
}

type rec struct {
	id int32
	ts float64
}

// Builder builds successive structures reusing its scratch: only the
// returned Structure is allocated, because a report is immutable once
// delivered. The zero value is ready; a Builder is not safe for concurrent use.
type Builder struct {
	items   []rec   // most recent first, capped at the top level's capacity + 1
	rank    []int32 // item id -> recency rank, valid only for ids set in this call
	collect func(id int32, ts float64) bool
}

// add is the MostRecent callback collecting one item.
func (b *Builder) add(id int32, ts float64) bool {
	//lint:allow hotalloc the slice keeps its capacity across broadcasts, so it grows only until it reaches N/2+1
	b.items = append(b.items, rec{id, ts})
	return true
}

// Build constructs the structure for an n-item database (n >= 2) from src.
func (b *Builder) Build(n int, src UpdateSource) *Structure {
	if n < 2 {
		panic("bitseq: database too small")
	}
	//lint:allow hotalloc the report owns a fresh structure: reports are immutable once delivered
	st := &Structure{N: n, TS0: max(src.NewestUpdateTime(), Epoch)}

	// Collect one item beyond the top level's mark capacity: the extra
	// item's update time is TS(B_n) when the level is full.
	capTop := n / 2
	if b.collect == nil {
		b.collect = b.add // bound once, so MostRecent's callback costs nothing per build
	}
	b.items = b.items[:0]
	src.MostRecent(capTop+1, b.collect)
	items := b.items
	avail := min(len(items), capTop) // items[capTop], if present, exists only for TS(B_n)

	// Level l has n>>l bits, down to 2, and marks the min(size/2, avail)
	// most recent items; the marked sets are nested.
	//lint:allow hotalloc the report owns its levels
	st.Seqs = make([]Sequence, bits.Len(uint(n))-1)
	var marks [64]int
	for l := range st.Seqs {
		size := n >> l
		st.Seqs[l].Len = size
		//lint:allow hotalloc the report owns its bits
		st.Seqs[l].Bits = make([]uint64, (size+63)/64)
		m := min(size/2, avail)
		marks[l] = m
		// TS(B_l): the update time of the (m+1)-th most recent item, or
		// the epoch when every ever-updated item is marked.
		st.Seqs[l].TS = Epoch
		if m < len(items) {
			st.Seqs[l].TS = items[m].ts
		}
	}

	// Every available item is marked at the top level, at its id. An item
	// of recency rank r is marked at level l iff r < marks[l], and its bit
	// at level l+1 is its rank in id order among level-l marked items, so
	// visiting the top bits in id order places every bit without a sort.
	if len(b.rank) < n {
		//lint:allow hotalloc grows at most to the largest database size the Builder serves, then is reused
		b.rank = make([]int32, n)
	}
	top := &st.Seqs[0]
	for r, it := range items[:avail] {
		b.rank[it.id] = int32(r)
		top.set(int(it.id))
	}
	var counters [64]int
	for w, word := range top.Bits {
		for ; word != 0; word &= word - 1 {
			r := int(b.rank[w<<6|bits.TrailingZeros64(word)])
			pos := counters[0]
			counters[0]++
			for l := 1; l < len(st.Seqs) && r < marks[l]; l++ {
				st.Seqs[l].set(pos)
				pos = counters[l]
				counters[l]++
			}
		}
	}
	return st
}

// Action tells a client what a Level decision means.
type Action int

const (
	// AllValid: nothing was updated after the client's Tlb.
	AllValid Action = iota
	// DropAll: the structure cannot bound the updates since Tlb; the
	// entire cache must be discarded.
	DropAll
	// InvalidateSet: discard exactly the located items.
	InvalidateSet
)

// String names the action for traces.
func (a Action) String() string {
	switch a {
	case AllValid:
		return "all-valid"
	case DropAll:
		return "drop-all"
	case InvalidateSet:
		return "invalidate-set"
	default:
		return "action(?)"
	}
}

// Level implements the decision of the client-side BS algorithm (paper
// Figure 2) for a client whose last report was at tlb: InvalidateSet means
// discard exactly the items marked at the returned level (0 = the top,
// N-bit sequence), the deepest one whose timestamp is <= tlb.
func (s *Structure) Level(tlb float64) (Action, int) {
	if s.TS0 <= tlb {
		return AllValid, 0
	}
	if len(s.Seqs) == 0 || tlb < s.Seqs[0].TS {
		return DropAll, 0
	}
	// Timestamps are non-decreasing with depth, so scan forward.
	level := 0
	for level+1 < len(s.Seqs) && s.Seqs[level+1].TS <= tlb {
		level++
	}
	return InvalidateSet, level
}

// Depths fills depth[:N] with, for each item id, the number of leading
// levels that mark it, so the id is marked at level l iff depth[id] > l.
// One pass decodes every level at once: O(N/64) words plus O(levels) per
// marked item. len(depth) must be at least N.
func (s *Structure) Depths(depth []uint8) {
	clear(depth[:s.N])
	// counters[l] counts the level-l marked items seen so far in id
	// order: the bit position at level l+1 of the next such item.
	var counters [64]int
	for w, word := range s.Seqs[0].Bits {
		for ; word != 0; word &= word - 1 {
			pos := counters[0]
			counters[0]++
			d := uint8(1)
			for l := 1; l < len(s.Seqs) && s.Seqs[l].get(pos); l++ {
				pos = counters[l]
				counters[l]++
				d++
			}
			depth[w<<6|bits.TrailingZeros64(word)] = d
		}
	}
}

// SizeBits reports the analytic report size in bits: the sum of all
// sequence lengths plus one timestamp per sequence including the dummy
// B_0, matching the paper's 2N + bT*log2(N) formula.
func (s *Structure) SizeBits(tsBits int) int {
	total := tsBits // TS(B0)
	for i := range s.Seqs {
		total += s.Seqs[i].Len + tsBits
	}
	return total
}

// Encode serializes the structure with bit-exact field widths. The wire
// layout is TS0, then each level's timestamp followed by its raw bits in
// index order. N and the level count are implicit: every client knows the
// database size.
func (s *Structure) Encode(w *bitio.Writer) {
	w.WriteFloat(s.TS0)
	for i := range s.Seqs {
		seq := &s.Seqs[i]
		w.WriteFloat(seq.TS)
		// Bit 0 goes first and WriteBits is MSB-first, so each word
		// travels bit-reversed; the last one carries only its valid bits.
		for j, word := range seq.Bits {
			width := min(seq.Len-64*j, 64)
			w.WriteBits(bits.Reverse64(word)>>(64-width), width)
		}
	}
}

// Decode reconstructs a structure for an n-item database from r.
func Decode(n int, r *bitio.Reader) (*Structure, error) {
	st := &Structure{N: n}
	ts0, err := r.ReadFloat()
	if err != nil {
		return nil, err
	}
	st.TS0 = ts0
	for size := n; size >= 2; size /= 2 {
		seq := Sequence{Len: size, Bits: make([]uint64, (size+63)/64)}
		if seq.TS, err = r.ReadFloat(); err != nil {
			return nil, err
		}
		for i := range seq.Bits {
			width := min(size-64*i, 64)
			v, err := r.ReadBits(width)
			if err != nil {
				return nil, err
			}
			seq.Bits[i] = bits.Reverse64(v << (64 - width))
			seq.Ones += bits.OnesCount64(seq.Bits[i])
		}
		st.Seqs = append(st.Seqs, seq)
	}
	return st, nil
}
