// Package sim is a deterministic discrete-event simulation kernel,
// standing in for the CSIM package the paper's evaluation was built on.
// It is the kernel alone: the one CSIM facility the model needs, the
// three-class channel, queues its own traffic in internal/netsim.
//
// The kernel keeps an event calendar (a binary heap ordered by time and
// then by scheduling sequence, so simultaneous events fire in the order
// they were scheduled). Model logic is written as event callbacks only:
// a CSIM process becomes a state machine whose every suspension point
// (hold, wait) is an explicit continuation scheduled on the calendar
// (DESIGN.md §16). Everything runs on the caller's goroutine, so
// execution is sequential and fully deterministic.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time = float64

// EndOfTime is later than any event the kernel will execute.
const EndOfTime Time = math.MaxFloat64

// event is a scheduled callback. Fired and cancelled events are recycled
// through the kernel's freelist, so model code never holds a *event
// directly; it gets a Handle, whose sequence number detects staleness.
type event struct {
	t         Time
	seq       uint64
	fn        func()
	heapIndex int // -1 when not queued
}

// Handle refers to a scheduled event and is the argument to Cancel. It is
// a value type; the zero Handle refers to nothing and is safe to Cancel.
// A Handle stays valid after its event fires or is cancelled — it merely
// stops being Scheduled — even though the underlying event struct may be
// recycled for a later Schedule call: the sequence number in the handle
// no longer matches the recycled event's, so a stale Cancel is a no-op
// rather than a hit on an innocent bystander.
type Handle struct {
	e   *event
	seq uint64
}

// Scheduled reports whether the handle's event is still on the calendar
// (it has neither fired nor been cancelled).
func (h Handle) Scheduled() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.heapIndex >= 0
}

// Time reports the simulated time the event is scheduled for, or zero if
// the handle is no longer Scheduled.
func (h Handle) Time() Time {
	if !h.Scheduled() {
		return 0
	}
	return h.e.t
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.heapIndex = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIndex = -1
	*h = old[:n-1]
	return e
}

// Kernel is the simulation executive. Create one with New, schedule
// events, then call Run. A Kernel is single-threaded: all model code runs
// inside event callbacks on the goroutine that calls Run or Step.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	// free recycles fired and cancelled event structs. Long simulations
	// schedule hundreds of millions of events; reusing the structs keeps
	// the scheduling hot path allocation-free in steady state, which is
	// what makes parallel sweeps scale instead of serialising in the GC.
	free []*event

	executed   uint64
	maxPending int
}

// New creates an empty kernel at time 0.
func New() *Kernel { return &Kernel{} }

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have fired, a cheap progress metric.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return len(k.events) }

// MaxPending reports the calendar's high-water mark — the deepest the
// event queue ever got. Run manifests record it as a kernel self-profile
// figure (memory pressure scales with it).
func (k *Kernel) MaxPending() int { return k.maxPending }

// Schedule queues fn to run delay seconds from now and returns a handle
// that can be cancelled. It panics on a negative delay.
//
// hot path: runs once per simulated event; 0 allocs/op pinned by
// BenchmarkKernelScheduleCancel.
func (k *Kernel) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fn)
}

// At queues fn to run at absolute time t (>= Now) and returns a handle.
//
// hot path: every Schedule lands here; steady state reuses freelist
// events and allocates nothing.
func (k *Kernel) At(t Time, fn func()) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.t, e.seq, e.fn = t, k.seq, fn
	} else {
		//lint:allow hotalloc freelist miss is the cold fill path; steady state recycles via Cancel/Step and BenchmarkKernelScheduleCancel pins 0 allocs/op
		e = &event{t: t, seq: k.seq, fn: fn}
	}
	heap.Push(&k.events, e)
	if len(k.events) > k.maxPending {
		k.maxPending = len(k.events)
	}
	//lint:allow hotalloc Handle is a two-word value returned on the stack; it never escapes
	return Handle{e: e, seq: e.seq}
}

// Cancel removes the handle's event from the calendar if it has not
// fired. Cancelling twice, cancelling after the event fired, or
// cancelling a zero Handle all do nothing.
//
// hot path: timer churn cancels an event per message; 0 allocs/op
// pinned by BenchmarkKernelScheduleCancel.
func (k *Kernel) Cancel(h Handle) {
	if !h.Scheduled() {
		return
	}
	e := h.e
	heap.Remove(&k.events, e.heapIndex)
	e.fn = nil
	e.heapIndex = -1
	//lint:allow hotalloc the freelist never outgrows the calendar high-water mark, so growth stops once the pool warms up
	k.free = append(k.free, e)
}

// Step fires the next event, advancing time. It reports false when the
// calendar is empty.
//
// hot path: the event loop itself; 0 allocs/op pinned by
// BenchmarkKernelEventThroughput.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := heap.Pop(&k.events).(*event)
	if e.t < k.now {
		panic("sim: calendar corrupted (time moved backwards)")
	}
	k.now = e.t
	fn := e.fn
	e.fn = nil
	// Recycle before running fn: outstanding handles are already stale
	// (heapIndex is -1, and any reuse bumps seq past theirs).
	//lint:allow hotalloc the freelist never outgrows the calendar high-water mark, so growth stops once the pool warms up
	k.free = append(k.free, e)
	k.executed++
	fn()
	return true
}

// Run fires events until the calendar empties or the next event lies
// beyond until; time then advances to until (or stays at the last event).
// Events exactly at until are executed.
func (k *Kernel) Run(until Time) {
	for len(k.events) > 0 && k.events[0].t <= until {
		k.Step()
	}
	if k.now < until && until != EndOfTime {
		k.now = until
	}
}
