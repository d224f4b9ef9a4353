package bitseq

import (
	"sort"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
)

// This file keeps the straightforward forms of the client decode, the
// server build and the wire encoder as test oracles: the production paths
// (Level with Depths, Builder.Build, the word-level Encode) must agree
// with them exactly.

// Locate implements the client-side BS algorithm (paper Figure 2): given
// the client's last-report timestamp tlb, it returns the action and, for
// InvalidateSet, dst extended with the ids to invalidate.
func (s *Structure) Locate(tlb float64, dst []int32) (Action, []int32) {
	if s.TS0 <= tlb {
		return AllValid, dst
	}
	if len(s.Seqs) == 0 || tlb < s.Seqs[0].TS {
		return DropAll, dst
	}
	// Deepest level with TS <= tlb; timestamps are non-decreasing with
	// depth, so scan forward.
	level := 0
	for level+1 < len(s.Seqs) && s.Seqs[level+1].TS <= tlb {
		level++
	}
	return InvalidateSet, s.IDsAtLevel(level, dst)
}

// IDsAtLevel appends the item ids marked at level li (0 = the top, N-bit
// sequence) to dst, in ascending id order.
func (s *Structure) IDsAtLevel(li int, dst []int32) []int32 {
	top := &s.Seqs[0]
	counters := make([]int, li+1)
	for id := 0; id < top.Len; id++ {
		if !top.get(id) {
			continue
		}
		// The item's position at level l+1 is its rank among level-l
		// marked items; walk down while it stays marked.
		marked := true
		pos := counters[0]
		counters[0]++
		for l := 1; l <= li; l++ {
			if !s.Seqs[l].get(pos) {
				marked = false
				break
			}
			next := counters[l]
			counters[l]++
			pos = next
		}
		if marked {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// sortBuild is the reference builder: it walks the recency list for the
// marked items, sorts their recency ranks by item id and assigns the bits
// level by level, reading no part of the database's depth index.
func sortBuild(n int, src *db.Database) *Structure {
	if n < 2 {
		panic("bitseq: database too small")
	}
	st := &Structure{N: n}
	if t := src.NewestUpdateTime(); t >= 0 {
		st.TS0 = t
	} else {
		st.TS0 = Epoch
	}
	type rec struct {
		id int32
		ts float64
	}
	capTop := n / 2
	items := make([]rec, 0, capTop+1)
	src.MostRecent(capTop+1, func(id int32, ts float64) bool {
		items = append(items, rec{id, ts})
		return true
	})
	avail := len(items)
	if avail > capTop {
		avail = capTop
	}
	sizes := []int{n}
	for sz := n / 2; sz >= 2; sz /= 2 {
		sizes = append(sizes, sz)
	}
	st.Seqs = make([]Sequence, len(sizes))
	marks := make([]int, len(sizes))
	for l, size := range sizes {
		st.Seqs[l].Len = size
		st.Seqs[l].Bits = make([]uint64, (size+63)/64)
		m := size / 2
		if m > avail {
			m = avail
		}
		marks[l] = m
		if m < len(items) {
			st.Seqs[l].TS = items[m].ts
		} else {
			st.Seqs[l].TS = Epoch
		}
	}
	ranks := make([]int, 0, avail) // recency ranks, sorted by item id
	for r := 0; r < avail; r++ {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return items[ranks[i]].id < items[ranks[j]].id })
	counters := make([]int, len(sizes))
	for _, r := range ranks {
		pos := int(items[r].id)
		for l := 0; l < len(sizes) && r < marks[l]; l++ {
			st.Seqs[l].set(pos)
			pos = counters[l]
			counters[l]++
		}
	}
	return st
}

// encodePerBit is the reference encoder: one WriteBool per bit, bit 0
// of each level first.
func encodePerBit(s *Structure, w *bitio.Writer) {
	w.WriteFloat(s.TS0)
	for i := range s.Seqs {
		seq := &s.Seqs[i]
		w.WriteFloat(seq.TS)
		for b := 0; b < seq.Len; b++ {
			w.WriteBool(seq.get(b))
		}
	}
}
