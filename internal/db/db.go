// Package db implements the server's database: N named items, updated
// only at the server (paper §2). Besides current item state it maintains
// the three indexes the invalidation schemes need:
//
//   - a recency list (most recently updated first) from which the
//     timestamp-window reports are built in time proportional to their
//     own size,
//   - a recency-depth index for the bit-sequences structure (paper §2.3):
//     level l (0 = the N-bit top) marks the N>>(l+1) most recently
//     updated items, so each item's depth, the number of levels marking
//     it, depends on its recency rank alone. Update keeps the depths and
//     each level's least recent marked item in O(levels), so a structure
//     is built without walking the list, and
//   - an append-only update log, chained per item, so the consistency
//     checker can ask "what version was current at time t" and verify
//     that no client ever serves a stale cache entry.
package db

import (
	"math/bits"

	"mobicache/internal/reuse"
)

// UpdateEntry is one (item, last-update time) pair, as carried in
// timestamp-window invalidation reports.
type UpdateEntry struct {
	ID int32
	TS float64
}

const nilIdx = int32(-1)

// logEntry is one update in the history log: its time and the 1-based log
// index of the same item's previous update (0 when it is the first).
type logEntry struct {
	t    float64
	prev int32
}

// Database holds the server's N data items.
type Database struct {
	n          int
	lastUpdate []float64 // per item; -1 when never updated
	version    []int32   // per item; 0 when never updated

	// History, kept only when tracked: log holds every update in time
	// order, and newest[id] is the 1-based log index of id's latest
	// update (0 = never updated), so a zeroed slice is the empty history.
	log    []logEntry
	newest []int32

	// Intrusive doubly-linked recency list over item ids; head is the
	// most recently updated item. Only ever-updated items are linked.
	next, prev []int32
	head, tail int32
	updated    int // distinct items ever updated

	// Recency-depth index: depth[id] is the number of levels marking id,
	// and bound[l] is level l's least recent marked item once N>>(l+1)
	// items were updated (nilIdx until then). The levels are those of the
	// bit-sequences structure: n>>l >= 2 bits each.
	depth []uint8
	bound []int32

	updates      int64   // total update operations
	lastTime     float64 // global high-water mark for time ordering
	trackHistory bool
}

// New creates a database of n items, none updated yet. trackHistory
// enables the update log (needed by VersionAt; costs one int32 per item
// plus memory proportional to total updates).
func New(n int, trackHistory bool) *Database {
	d := new(Database)
	d.Reset(n, trackHistory)
	return d
}

// Reset makes d a database of n items, none updated yet, exactly as New
// builds one, but reusing every array of d's that is large enough: the
// per-item arrays, the level bounds and the update log's storage. A run
// that follows another on the same Database then allocates nothing for it
// when it fits.
func (d *Database) Reset(n int, trackHistory bool) {
	if n <= 0 {
		panic("db: need at least one item")
	}
	*d = Database{
		n:            n,
		lastUpdate:   reuse.Slice(d.lastUpdate, n),
		version:      reuse.Slice(d.version, n),
		log:          d.log[:0],
		newest:       d.newest[:0],
		next:         reuse.Slice(d.next, n),
		prev:         reuse.Slice(d.prev, n),
		depth:        reuse.Slice(d.depth, n),
		bound:        reuse.Slice(d.bound, bits.Len(uint(n))-1),
		head:         nilIdx,
		tail:         nilIdx,
		trackHistory: trackHistory,
	}
	for i := range d.lastUpdate {
		d.lastUpdate[i] = -1
		d.next[i] = nilIdx
		d.prev[i] = nilIdx
	}
	for l := range d.bound {
		d.bound[l] = nilIdx
	}
	if trackHistory {
		d.newest = reuse.Slice(d.newest, n)
	}
}

// N reports the database size.
func (d *Database) N() int { return d.n }

// Updates reports the total number of update operations applied.
func (d *Database) Updates() int64 { return d.updates }

// DistinctUpdated reports how many distinct items have ever been updated.
func (d *Database) DistinctUpdated() int { return d.updated }

// Update applies an update to item id at time now. Updates must be
// applied in globally non-decreasing time order (the recency index
// depends on it).
func (d *Database) Update(id int32, now float64) {
	if id < 0 || int(id) >= d.n {
		panic("db: item id out of range")
	}
	if d.lastTime > now {
		panic("db: updates out of time order")
	}
	d.lastTime = now
	oldPrev := d.prev[id]
	if d.lastUpdate[id] < 0 {
		d.updated++
	} else {
		d.unlink(id)
	}
	d.lastUpdate[id] = now
	d.version[id]++
	d.pushFront(id)
	d.reindex(id, oldPrev)
	d.updates++
	if d.trackHistory {
		d.log = append(d.log, logEntry{t: now, prev: d.newest[id]})
		d.newest[id] = int32(len(d.log))
	}
}

// reindex updates the recency-depth index after pushFront made id the
// most recent item; oldPrev is id's predecessor before the move.
func (d *Database) reindex(id, oldPrev int32) {
	old := int(d.depth[id])
	// A level that already marked id keeps its set. Its least recent
	// marked item moves up one rank only if it was id itself, unless id
	// was also the most recent (a one-item level).
	for l := 0; l < old; l++ {
		if d.bound[l] == id && oldPrev != nilIdx {
			d.bound[l] = oldPrev
		}
	}
	// Any other level gains id at the front. A full level loses its least
	// recent marked item, whose predecessor (id itself for a one-item
	// level) becomes the bound; a level id just filled is bound at the
	// tail. A level that did not mark id and is not full cannot exist
	// for an item updated before, so only a first update fills one.
	for l := old; l < len(d.bound); l++ {
		switch b := d.bound[l]; {
		case b != nilIdx:
			d.depth[b]--
			d.bound[l] = d.prev[b]
		case d.updated == d.n>>(l+1):
			d.bound[l] = d.tail
		}
	}
	if len(d.bound) > 0 {
		d.depth[id] = uint8(len(d.bound))
	}
}

func (d *Database) unlink(id int32) {
	p, n := d.prev[id], d.next[id]
	if p != nilIdx {
		d.next[p] = n
	} else {
		d.head = n
	}
	if n != nilIdx {
		d.prev[n] = p
	} else {
		d.tail = p
	}
	d.prev[id], d.next[id] = nilIdx, nilIdx
}

func (d *Database) pushFront(id int32) {
	d.prev[id] = nilIdx
	d.next[id] = d.head
	if d.head != nilIdx {
		d.prev[d.head] = id
	}
	d.head = id
	if d.tail == nilIdx {
		d.tail = id
	}
}

// LastUpdate reports when id was last updated, or a negative value if
// never.
func (d *Database) LastUpdate(id int32) float64 { return d.lastUpdate[id] }

// Version reports the current version of id (0 = initial, never updated).
func (d *Database) Version(id int32) int32 { return d.version[id] }

// UpdatedSince appends to dst every (id, lastUpdate) with lastUpdate > t,
// most recent first, and returns the extended slice. Cost is proportional
// to the result size.
func (d *Database) UpdatedSince(t float64, dst []UpdateEntry) []UpdateEntry {
	for id := d.head; id != nilIdx; id = d.next[id] {
		if d.lastUpdate[id] <= t {
			break
		}
		dst = append(dst, UpdateEntry{ID: id, TS: d.lastUpdate[id]})
	}
	return dst
}

// CountUpdatedSince reports how many distinct items were updated after t.
func (d *Database) CountUpdatedSince(t float64) int {
	n := 0
	for id := d.head; id != nilIdx; id = d.next[id] {
		if d.lastUpdate[id] <= t {
			break
		}
		n++
	}
	return n
}

// MostRecent calls fn for up to max distinct items in most-recent-first
// order, stopping early if fn returns false. It visits only items that
// were ever updated. The AT and signature servers build their reports off
// this walk. The bit-sequences build reads the depth index instead; only
// its sort-based test oracle still walks the list.
func (d *Database) MostRecent(max int, fn func(id int32, ts float64) bool) {
	count := 0
	for id := d.head; id != nilIdx && count < max; id = d.next[id] {
		if !fn(id, d.lastUpdate[id]) {
			return
		}
		count++
	}
}

// DepthIndex returns the recency-depth index, valid until the next Update
// and never to be modified: depth[id] is the number of leading levels
// marking id (0 when unmarked), so id is marked at level l iff
// depth[id] > l.
func (d *Database) DepthIndex() []uint8 { return d.depth }

// LevelTS reports the bit-sequences timestamp TS(B_l): the update time of
// the most recent item level l does not mark, or -1 when level l marks
// every ever-updated item. Every item marked at level l was updated after
// it.
func (d *Database) LevelTS(l int) float64 {
	b := d.bound[l]
	if b == nilIdx || d.next[b] == nilIdx {
		return -1
	}
	return d.lastUpdate[d.next[b]]
}

// NewestUpdateTime reports the most recent update time, or -1 if the
// database was never updated.
func (d *Database) NewestUpdateTime() float64 {
	if d.head == nilIdx {
		return -1
	}
	return d.lastUpdate[d.head]
}

// VersionAt reports the version of id that was current at time t: the
// number of id's updates before t+1e-12 (inclusive of t). Each update
// bumped the version once, so it walks id's updates newest first and
// subtracts those at or after that bound. It requires history tracking.
func (d *Database) VersionAt(id int32, t float64) int32 {
	if !d.trackHistory {
		panic("db: VersionAt requires history tracking")
	}
	bound := t + 1e-12
	v := d.version[id]
	for i := d.newest[id]; i != 0 && d.log[i-1].t >= bound; i = d.log[i-1].prev {
		v--
	}
	return v
}

// CheckValid reports whether item id, last validated by its holder at
// time tlb, is still valid now: i.e. it has not been updated since tlb.
// This is the server-side test in the simple-checking scheme.
func (d *Database) CheckValid(id int32, tlb float64) bool {
	return d.lastUpdate[id] <= tlb
}
