// Package netsim models the wireless link of a single cell: one shared
// broadcast downlink from the mobile support station to all clients and
// one shared uplink from the clients to the station.
//
// Each channel is a single server whose service time is message size in
// bits divided by bandwidth in bits per second. Following the paper's §4
// network model, traffic is split into three priority classes —
// invalidation reports highest, validity-checking control traffic next,
// and everything else FCFS — and the report class preempts so that
// invalidation reports always begin transmission exactly on the broadcast
// period boundary.
package netsim

import (
	"fmt"

	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/sim"
)

// Class is a traffic priority class.
type Class int

// Priority classes, ordered low to high.
const (
	// ClassData carries data items and fetch requests (lowest priority,
	// FCFS).
	ClassData Class = iota
	// ClassControl carries validity-checking requests, validity reports
	// and Tlb feedback.
	ClassControl
	// ClassReport carries periodic invalidation reports; it preempts
	// lower classes.
	ClassReport
	numClasses
)

// String names the class for reports and traces.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassControl:
		return "control"
	case ClassReport:
		return "report"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// idle marks a channel with no message on the air.
const idle Class = -1

// message is one admitted transmission waiting in, or at the head of, its
// class's line.
type message struct {
	// remaining is the transmission time still owed; a preemption credits
	// the time already served.
	remaining sim.Time
	tx        TxObserver
	ev        sim.Event
	// waited marks a message counted in lowWait (admitted while the
	// channel was busy); started marks its first service start, after
	// which a resume fires no observer and touches no counter.
	waited, started bool
}

// line is one class's FIFO, a ring buffer of message records. The
// message on the air stays at the head of its line until it completes,
// so a preempted message resumes ahead of later arrivals of its class.
type line struct {
	buf  []message
	head int
	n    int
}

func (l *line) front() *message { return &l.buf[l.head] }

// push appends a zeroed record and returns it for the caller to fill.
//
// hot path: one call per admitted message; the ring grows only while the
// backlog reaches a new high, then reuses its slots.
func (l *line) push() *message {
	if l.n == len(l.buf) {
		//lint:allow hotalloc ring growth is the cold fill path; a steady backlog reuses its slots, and TestSendPathAllocFree pins 0 allocs per cycle
		buf := make([]message, max(8, 2*len(l.buf)))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	m := &l.buf[(l.head+l.n)%len(l.buf)]
	l.n++
	return m
}

// pop removes and returns the head record, clearing its slot so the ring
// holds no observers of completed messages.
func (l *line) pop() message {
	m := l.buf[l.head]
	l.buf[l.head] = message{}
	l.head = (l.head + 1) % len(l.buf)
	l.n--
	return m
}

// Channel is a shared wireless channel: a single server with one FIFO
// line per traffic class and preemptive-resume service for reports.
type Channel struct {
	name string
	k    *sim.Kernel
	bw   float64 // bits per second

	lines [numClasses]line
	// cur is the class whose head message is on the air, or idle; that
	// transmission started (or resumed) at curStart and completes at the
	// event done, which runs completeFn (c.complete, bound once).
	cur        Class
	curStart   sim.Time
	done       sim.Handle
	completeFn func()

	busy      float64 // completed or preempted service time
	served    int64
	preempted int64
	maxQueue  int

	bits [numClasses]float64
	lost [numClasses]int64
	shed [numClasses]int64

	// Bounded-queue admission state. queueCap bounds the number of
	// admitted-and-waiting data/control messages (reports are exempt);
	// lowWait tracks that population exactly, maxLowWait its high-water
	// mark. A message preempted out of service keeps its in-service
	// status for this accounting (preemptive-resume returns it to the
	// head of service), so lowWait never exceeds queueCap.
	queueCap   int
	lowWait    int
	maxLowWait int
	onShed     func(class Class)

	ge      *faults.GE
	onFault func(class Class, v faults.Verdict)
	adv     *delivery.Link
}

// NewChannel creates a channel with the given bandwidth in bits/second.
// Bandwidth must be positive.
func NewChannel(k *sim.Kernel, name string, bitsPerSecond float64) *Channel {
	if bitsPerSecond <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	c := &Channel{name: name, k: k, bw: bitsPerSecond, cur: idle}
	c.completeFn = c.complete
	return c
}

// Name reports the channel label.
func (c *Channel) Name() string { return c.name }

// Bandwidth reports the channel bandwidth in bits/second.
func (c *Channel) Bandwidth() float64 { return c.bw }

// SetFaults installs a Gilbert–Elliott loss/corruption model consulted
// once per completed transmission: a faulted message occupies the channel
// for its full transmission time but never reaches its receiver (its
// delivery event is suppressed). onFault, if non-nil, observes each
// non-Deliver verdict for counting and tracing. Pass ge == nil to remove
// the model; a channel without one behaves exactly as before, consuming
// no randomness.
func (c *Channel) SetFaults(ge *faults.GE, onFault func(class Class, v faults.Verdict)) {
	c.ge = ge
	c.onFault = onFault
}

// SetDelivery installs an adversarial-delivery link consulted after every
// surviving transmission: the message's delivery event runs through
// the link's partition/jitter/reorder/duplication machinery instead of
// firing directly. Ordering composes with SetFaults: the Gilbert–Elliott
// verdict destroys the message on the channel first; only delivered
// messages reach the adversary. Pass nil to remove; a channel without a
// link behaves exactly as before, consuming no randomness.
func (c *Channel) SetDelivery(l *delivery.Link) { c.adv = l }

// SetQueueCap bounds the number of waiting data and control messages; a
// send that would exceed the cap is tail-dropped at admission (Send
// returns false) and counted in the shed statistics. Invalidation
// reports are exempt — they are the consistency backbone and preempt the
// channel anyway. 0 restores the unbounded legacy model. Admission is a
// pure comparison: it consumes no randomness and schedules no events, so
// an unbounded channel is bit-identical to one built before this knob.
func (c *Channel) SetQueueCap(n int) {
	if n < 0 {
		panic("netsim: negative queue capacity")
	}
	c.queueCap = n
}

// SetShedHook installs an observer invoked for every tail-dropped
// message, after the shed counter is bumped (the engine traces sheds
// through it). Pass nil to remove.
func (c *Channel) SetShedHook(fn func(class Class)) { c.onShed = fn }

// TxObserver watches a message leave its queue: TxStart runs exactly
// once, at the simulated instant the message's first bit goes on the air
// (queueing over, transmission begun). A preempted-and-resumed message
// does not run it again.
type TxObserver interface{ TxStart(t sim.Time) }

// Send queues a message of the given size and class, reporting whether it
// was admitted. tx, if not nil, observes the transmission's start; ev, if
// not nil, fires when the last bit has been transmitted (after the fault
// model and the delivery adversary rule on it). A record that already
// exists can be both, so a send binds nothing; a closure rides as
// sim.Func. Observers add no kernel events and draw no randomness. Span
// assembly uses tx to separate the queueing phase from the transmit
// phase.
//
// The report class preempts in-progress lower-class transmissions
// (preemptive-resume). With a queue capacity set (SetQueueCap), a data or
// control message arriving while the channel is busy and the cap is full
// is tail-dropped: Send returns false, nothing is queued or charged to
// the bit accounting, and the caller must recover (retry later or
// abandon the exchange).
//
// hot path: one call per simulated message; 0 allocs/op on both the shed
// and the admitted path once the class's line has grown to the backlog
// (TestShedPathAllocFree, TestSendPathAllocFree).
func (c *Channel) Send(class Class, bits float64, tx TxObserver, ev sim.Event) bool {
	if bits < 0 {
		panic("netsim: negative message size")
	}
	if class < 0 || class >= numClasses {
		panic("netsim: unknown class")
	}
	waits := c.cur != idle && class != ClassReport && c.queueCap > 0
	if waits && c.lowWait >= c.queueCap {
		c.shed[class]++
		if c.onShed != nil {
			c.onShed(class)
		}
		return false
	}
	c.bits[class] += bits
	if waits {
		// Track the waiting population exactly: admitted-while-busy
		// increments, first service start decrements.
		c.lowWait++
		if c.lowWait > c.maxLowWait {
			c.maxLowWait = c.lowWait
		}
	}
	if class == ClassReport && c.cur != idle && c.cur != ClassReport {
		c.preempt()
	}
	m := c.lines[class].push()
	m.remaining = bits / c.bw
	m.tx = tx
	m.ev = ev
	m.waited = waits
	if n := c.QueueLen(); n > c.maxQueue {
		c.maxQueue = n
	}
	c.dispatch()
	return true
}

// preempt takes the message on the air off it, crediting the service it
// already received. It stays at the head of its line, so it resumes ahead
// of anything that arrived after it in its class.
func (c *Channel) preempt() {
	m := c.lines[c.cur].front()
	served := c.k.Now() - c.curStart
	m.remaining -= served
	if m.remaining < 0 {
		m.remaining = 0
	}
	c.busy += served
	c.k.Cancel(c.done)
	c.cur = idle
	c.preempted++
}

// dispatch puts the head of the highest non-empty class on the air if the
// channel is idle. A message's first start releases its queue slot and
// fires its observer before its completion is scheduled.
//
// hot path: once per transmission start.
func (c *Channel) dispatch() {
	if c.cur != idle {
		return
	}
	for class := ClassReport; class >= ClassData; class-- {
		if c.lines[class].n == 0 {
			continue
		}
		m := c.lines[class].front()
		now := c.k.Now()
		c.cur, c.curStart = class, now
		if !m.started {
			m.started = true
			if m.waited {
				c.lowWait--
			}
			if m.tx != nil {
				m.tx.TxStart(now)
			}
		}
		c.done = c.k.Schedule(m.remaining, c.completeFn)
		return
	}
}

// complete ends the transmission on the air. The fault model rules on
// every completed message, even one without a receiver; a surviving
// message's receiver runs through the delivery adversary, if armed,
// while the channel is idle and before the next dispatch.
//
// hot path: once per completed transmission.
func (c *Channel) complete() {
	c.busy += c.k.Now() - c.curStart
	class := c.cur
	m := c.lines[class].pop()
	c.cur = idle
	c.served++
	delivered := true
	if c.ge != nil {
		if v := c.ge.Next(); v != faults.Deliver {
			delivered = false
			c.lost[class]++
			if c.onFault != nil {
				c.onFault(class, v)
			}
		}
	}
	if delivered && m.ev != nil {
		if c.adv != nil {
			c.adv.Deliver(m.ev)
		} else {
			m.ev.Fire()
		}
	}
	c.dispatch()
}

// ResetStats zeroes the per-class accounting and the service statistics
// (measurement warmup). Queued messages remain queued, so the queue
// high-water marks restart from the current backlog, and a message on the
// air only counts its remaining service toward the new window.
func (c *Channel) ResetStats() {
	c.bits = [numClasses]float64{}
	c.lost = [numClasses]int64{}
	c.shed = [numClasses]int64{}
	c.maxLowWait = c.lowWait
	c.busy = 0
	c.served = 0
	c.preempted = 0
	c.maxQueue = c.QueueLen()
	if c.cur != idle {
		c.curStart = c.k.Now()
	}
}

// Shed reports messages tail-dropped at admission in a class.
func (c *Channel) Shed(class Class) int64 { return c.shed[class] }

// TotalShed reports tail-dropped messages across all classes.
func (c *Channel) TotalShed() int64 {
	t := int64(0)
	for _, n := range c.shed {
		t += n
	}
	return t
}

// MaxQueuedLow reports the high-water mark of the admitted-and-waiting
// data/control population the queue cap governs since the last
// ResetStats; on a bounded channel it never exceeds the configured cap.
// It is always 0 while no cap is set (the accounting only runs on bounded
// channels).
func (c *Channel) MaxQueuedLow() int { return c.maxLowWait }

// TotalLost reports fault-destroyed messages across all classes.
func (c *Channel) TotalLost() int64 {
	t := int64(0)
	for _, n := range c.lost {
		t += n
	}
	return t
}

// TxTime reports how long a message of the given size occupies the channel.
func (c *Channel) TxTime(bits float64) sim.Time { return bits / c.bw }

// BusyTime reports cumulative transmission time, including the progress
// of any message currently on the air.
func (c *Channel) BusyTime() float64 {
	b := c.busy
	if c.cur != idle {
		b += c.k.Now() - c.curStart
	}
	return b
}

// RegisterMetrics registers this channel's timeline columns on reg, all
// named with the given prefix: per-interval utilization (busy fraction of
// each sampling interval of the given length), bits accepted, queue
// depth at the sample instant, messages destroyed by the fault model,
// and messages tail-dropped at admission. No-op on a nil registry;
// polling draws no randomness and schedules no events.
func (c *Channel) RegisterMetrics(reg *metrics.Registry, prefix string, interval float64) {
	if reg == nil {
		return
	}
	var prevBusy float64
	reg.GaugeFunc(prefix+"_util", func() float64 {
		b := c.BusyTime()
		d := b - prevBusy
		prevBusy = b
		if d < 0 { // stat reset (warmup boundary)
			d = 0
		}
		return d / interval
	})
	reg.DeltaFunc(prefix+"_bits", c.TotalBits)
	reg.GaugeFunc(prefix+"_queue", func() float64 { return float64(c.QueueLen()) })
	reg.DeltaFunc(prefix+"_lost", func() float64 { return float64(c.TotalLost()) })
	reg.DeltaFunc(prefix+"_shed", func() float64 { return float64(c.TotalShed()) })
}

// Bits reports the total bits accepted for transmission in a class
// (including any message still in flight).
func (c *Channel) Bits(class Class) float64 { return c.bits[class] }

// TotalBits reports bits accepted across all classes.
func (c *Channel) TotalBits() float64 {
	t := 0.0
	for _, b := range c.bits {
		t += b
	}
	return t
}

// Utilization reports busy fraction over elapsed simulated seconds (0 if
// elapsed <= 0), counting the progress of a message on the air.
func (c *Channel) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := c.busy / elapsed
	if c.cur != idle {
		u += (c.k.Now() - c.curStart) / elapsed
	}
	return u
}

// QueueLen reports messages waiting (excluding the one in transmission).
func (c *Channel) QueueLen() int {
	n := 0
	for i := range c.lines {
		n += c.lines[i].n
	}
	if c.cur != idle {
		n--
	}
	return n
}

// MaxQueueLen reports the wait-queue high-water mark.
func (c *Channel) MaxQueueLen() int { return c.maxQueue }

// Preemptions reports how many transmissions were interrupted by reports.
func (c *Channel) Preemptions() int64 { return c.preempted }

// Delivered reports completed transmissions across all classes, including
// ones the fault model destroyed.
func (c *Channel) Delivered() int64 { return c.served }
