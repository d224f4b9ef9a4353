package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// refEvent is one entry of the reference calendar: a plain
// container/heap over (t, seq), the calendar the kernel used before its
// typed 4-ary heap.
type refEvent struct {
	t     Time
	seq   uint64
	id    int
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.index = -1
	return e
}

// calendarOracle drives the kernel and the reference calendar through
// the same operations. Every event gets an id; live maps an id to its
// reference entry while it is queued.
type calendarOracle struct {
	t    *testing.T
	k    *Kernel
	r    *rand.Rand
	ref  refHeap
	now  Time
	seq  uint64
	max  int
	live map[int]*refEvent

	handles []Handle
	fired   []int // ids in kernel fire order
}

// schedule queues a new event at absolute time at on both calendars,
// through Schedule or At at random. When the event fires it records its
// id and, sometimes, schedules or cancels further events from inside
// the callback.
func (o *calendarOracle) schedule(at Time) {
	id := len(o.handles)
	fn := func() {
		o.fired = append(o.fired, id)
		switch o.r.IntN(6) {
		case 0:
			o.schedule(o.k.Now() + o.delay())
		case 1:
			o.schedule(o.k.Now() + o.delay())
			o.schedule(o.k.Now() + o.delay())
		case 2:
			o.cancel(o.r.IntN(len(o.handles)))
		}
	}
	var h Handle
	if o.r.IntN(2) == 0 {
		h = o.k.Schedule(at-o.k.Now(), fn)
	} else {
		h = o.k.At(at, fn)
	}
	o.handles = append(o.handles, h)
	o.seq++
	e := &refEvent{t: at, seq: o.seq, id: id}
	heap.Push(&o.ref, e)
	o.live[id] = e
	o.max = max(o.max, o.ref.Len())
}

// delay draws from a small set so that ties in t are common.
func (o *calendarOracle) delay() Time {
	return []Time{0, 0.5, 1, 1, 2, 3.25}[o.r.IntN(6)]
}

// cancel cancels event id on both calendars. The id may have fired or
// been cancelled already, so its handle may be stale and its event
// struct recycled for a later event.
func (o *calendarOracle) cancel(id int) {
	h := o.handles[id]
	e, queued := o.live[id]
	if h.Scheduled() != queued {
		o.t.Fatalf("event %d: Scheduled() = %v, reference queued = %v", id, h.Scheduled(), queued)
	}
	if queued && h.Time() != e.t {
		o.t.Fatalf("event %d: Time() = %v, want %v", id, h.Time(), e.t)
	}
	o.k.Cancel(h)
	if queued {
		heap.Remove(&o.ref, e.index)
		delete(o.live, id)
	}
	if h.Scheduled() {
		o.t.Fatalf("event %d still scheduled after Cancel", id)
	}
}

// step fires the next event on both calendars and compares them.
func (o *calendarOracle) step() {
	want := -1
	if o.ref.Len() > 0 {
		e := heap.Pop(&o.ref).(*refEvent)
		delete(o.live, e.id)
		o.now = e.t
		want = e.id
	}
	n := len(o.fired)
	if o.k.Step() != (want >= 0) {
		o.t.Fatalf("Step() disagrees with the reference about an empty calendar")
	}
	if want >= 0 && (len(o.fired) == n || o.fired[n] != want) {
		o.t.Fatalf("step %d fired %v, want event %d", n, o.fired[n:], want)
	}
}

func (o *calendarOracle) check(op int) {
	if o.k.Now() != o.now || o.k.Pending() != o.ref.Len() || o.k.MaxPending() != o.max {
		o.t.Fatalf("op %d: Now/Pending/MaxPending = %v/%d/%d, reference %v/%d/%d",
			op, o.k.Now(), o.k.Pending(), o.k.MaxPending(), o.now, o.ref.Len(), o.max)
	}
}

// TestCalendarMatchesReferenceHeap runs a seeded random mix of Schedule,
// At, Cancel (live and stale handles) and Step, including schedules and
// cancels from inside events and ties in t, through the kernel and
// through a container/heap reference, and requires the same fire order,
// Now, Pending and MaxPending after every operation.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		o := &calendarOracle{t: t, k: New(), r: rand.New(rand.NewPCG(seed, 24)),
			live: make(map[int]*refEvent)}
		for op := 0; op < 20000; op++ {
			switch x := o.r.IntN(20); {
			case x < 8:
				o.schedule(o.k.Now() + o.delay())
			case x < 11 && len(o.handles) > 0:
				o.cancel(o.r.IntN(len(o.handles)))
			default:
				o.step()
			}
			o.check(op)
		}
		for o.ref.Len() > 0 || o.k.Pending() > 0 {
			o.step()
			o.check(-1)
		}
		if o.k.Executed() != uint64(len(o.fired)) {
			t.Fatalf("seed %d: Executed = %d, fired %d", seed, o.k.Executed(), len(o.fired))
		}
		if o.max < 50 {
			t.Fatalf("seed %d: calendar peaked at %d events; the mix does not exercise a deep heap", seed, o.max)
		}
	}
}
