package netsim

import (
	"math"
	"slices"
	"testing"

	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
)

func TestTransmissionTime(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 10000)
	var done sim.Time
	ch.Send(ClassData, 8192, nil, sim.Func(func() { done = k.Now() }))
	k.Run(sim.EndOfTime)
	if math.Abs(done-0.8192) > 1e-12 {
		t.Fatalf("delivered at %v, want 0.8192", done)
	}
	if ch.TxTime(20000) != 2 {
		t.Fatalf("TxTime = %v", ch.TxTime(20000))
	}
}

func TestSharedChannelSerializes(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		ch.Send(ClassData, 1000, nil, sim.Func(func() { times = append(times, k.Now()) }))
	}
	k.Run(sim.EndOfTime)
	for i, want := range []sim.Time{1, 2, 3} {
		if math.Abs(times[i]-want) > 1e-12 {
			t.Fatalf("times = %v", times)
		}
	}
}

// A report submitted on a saturated channel must start immediately,
// pausing the in-flight data message (paper: reports are always broadcast
// exactly on the period boundary).
func TestReportPreemptsData(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	var dataDone, reportDone sim.Time
	ch.Send(ClassData, 10000, nil, sim.Func(func() { dataDone = k.Now() }))
	k.Schedule(2, func() {
		ch.Send(ClassReport, 1000, nil, sim.Func(func() { reportDone = k.Now() }))
	})
	k.Run(sim.EndOfTime)
	if math.Abs(reportDone-3) > 1e-12 {
		t.Fatalf("report done at %v, want 3", reportDone)
	}
	if math.Abs(dataDone-11) > 1e-12 {
		t.Fatalf("data done at %v, want 11 (preemptive resume)", dataDone)
	}
	if ch.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", ch.Preemptions())
	}
}

// Control traffic outranks data in the queue but does not preempt.
func TestControlQueuesAheadOfData(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "up", 1000)
	var order []string
	ch.Send(ClassData, 3000, nil, sim.Func(func() { order = append(order, "d1") }))
	ch.Send(ClassData, 3000, nil, sim.Func(func() { order = append(order, "d2") }))
	k.Schedule(1, func() {
		ch.Send(ClassControl, 1000, nil, sim.Func(func() { order = append(order, "c") }))
	})
	k.Run(sim.EndOfTime)
	want := []string{"d1", "c", "d2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAccounting(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 10000)
	ch.Send(ClassReport, 100, nil, nil)
	ch.Send(ClassReport, 200, nil, nil)
	ch.Send(ClassControl, 50, nil, nil)
	ch.Send(ClassData, 8192, nil, nil)
	k.Run(sim.EndOfTime)
	if ch.Bits(ClassReport) != 300 {
		t.Fatalf("report class: %v bits", ch.Bits(ClassReport))
	}
	if ch.Bits(ClassControl) != 50 {
		t.Fatalf("control bits = %v", ch.Bits(ClassControl))
	}
	if ch.TotalBits() != 300+50+8192 {
		t.Fatalf("total = %v", ch.TotalBits())
	}
	if ch.Delivered() != 4 {
		t.Fatalf("delivered = %d", ch.Delivered())
	}
}

func TestUtilization(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	ch.Send(ClassData, 5000, nil, nil)
	k.Run(10)
	if u := ch.Utilization(10); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestZeroSizeMessage(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	fired := false
	ch.Send(ClassData, 0, nil, sim.Func(func() { fired = true }))
	k.Run(sim.EndOfTime)
	if !fired {
		t.Fatal("zero-size message not delivered")
	}
}

func TestInvalidBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewChannel(sim.New(), "x", 0)
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewChannel(sim.New(), "x", 1).Send(ClassData, -1, nil, nil)
}

func TestBadClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewChannel(sim.New(), "x", 1).Send(Class(9), 1, nil, nil)
}

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassControl.String() != "control" ||
		ClassReport.String() != "report" {
		t.Fatal("class names")
	}
	if Class(7).String() != "class(7)" {
		t.Fatal("unknown class name")
	}
}

func TestNameAndBandwidth(t *testing.T) {
	ch := NewChannel(sim.New(), "uplink", 123)
	if ch.Name() != "uplink" || ch.Bandwidth() != 123 {
		t.Fatal("accessors")
	}
}

// Periodic reports on a saturated channel: every report must complete
// within its own period, and data drains only in the gaps.
func TestPeriodicReportsOnSaturatedChannel(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	const L = 20.0
	var reportDone []sim.Time
	for i := 0; i < 100; i++ {
		ch.Send(ClassData, 5000, nil, nil) // 500s of demand: saturated
	}
	for i := 1; i <= 5; i++ {
		at := sim.Time(i) * L
		k.At(at, func() {
			ch.Send(ClassReport, 2000, nil, sim.Func(func() { reportDone = append(reportDone, k.Now()) }))
		})
	}
	k.Run(200)
	if len(reportDone) != 5 {
		t.Fatalf("reports delivered: %d", len(reportDone))
	}
	for i, done := range reportDone {
		start := sim.Time(i+1) * L
		if math.Abs(done-(start+2)) > 1e-9 {
			t.Fatalf("report %d done at %v, want %v", i, done, start+2)
		}
	}
}

// A bounded channel admits up to cap waiting low-class messages; the
// next one is tail-dropped at admission with no accounting side effects,
// and the rejection is surfaced to both the sender and the shed hook.
func TestBoundedChannelTailDrop(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "up", 1000)
	ch.SetQueueCap(2)
	var shed []Class
	ch.SetShedHook(func(c Class) { shed = append(shed, c) })

	if !ch.Send(ClassData, 1000, nil, nil) { // goes straight into service
		t.Fatal("in-service send rejected")
	}
	if !ch.Send(ClassData, 1000, nil, nil) || !ch.Send(ClassControl, 1000, nil, nil) {
		t.Fatal("send within cap rejected")
	}
	bits := ch.TotalBits()
	if ch.Send(ClassData, 1000, nil, nil) {
		t.Fatal("send beyond cap admitted")
	}
	if ch.TotalBits() != bits {
		t.Fatal("tail-dropped message charged to the accounting")
	}
	if ch.Shed(ClassData) != 1 || ch.TotalShed() != 1 {
		t.Fatalf("shed counters: data=%d total=%d", ch.Shed(ClassData), ch.TotalShed())
	}
	if len(shed) != 1 || shed[0] != ClassData {
		t.Fatalf("shed hook saw %v", shed)
	}
	if ch.lowWait != 2 || ch.MaxQueuedLow() != 2 {
		t.Fatalf("waiting population %d/%d, want 2/2", ch.lowWait, ch.MaxQueuedLow())
	}
	k.Run(sim.EndOfTime)
	if ch.lowWait != 0 {
		t.Fatalf("drained channel still reports %d waiting", ch.lowWait)
	}
	if ch.Delivered() != 3 {
		t.Fatalf("delivered %d, want 3", ch.Delivered())
	}
}

// Reports are exempt from admission: they are the consistency backbone
// and preempt the channel, so a full queue never rejects one.
func TestBoundedChannelReportExempt(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	ch.SetQueueCap(1)
	delivered := false
	ch.Send(ClassData, 5000, nil, nil)
	ch.Send(ClassData, 5000, nil, nil) // fills the cap
	if !ch.Send(ClassReport, 1000, nil, sim.Func(func() { delivered = true })) {
		t.Fatal("report rejected by a full bounded queue")
	}
	k.Run(sim.EndOfTime)
	if !delivered {
		t.Fatal("report not delivered")
	}
	if ch.TotalShed() != 0 {
		t.Fatalf("shed %d on report-only overflow", ch.TotalShed())
	}
}

// A report preempting the in-service data message must not open a free
// queue slot: the preempted message keeps its in-service status for the
// admission accounting, so the waiting population never exceeds the cap.
func TestBoundedChannelPreemptionKeepsBound(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	ch.SetQueueCap(2)
	ch.Send(ClassData, 10000, nil, nil)
	ch.Send(ClassData, 1000, nil, nil)
	ch.Send(ClassData, 1000, nil, nil) // cap reached
	k.Schedule(2, func() {
		ch.Send(ClassReport, 1000, nil, nil) // preempts the first data message
		if ch.Send(ClassData, 1000, nil, nil) {
			t.Error("send admitted while preempted message holds its slot")
		}
	})
	k.Run(sim.EndOfTime)
	if ch.MaxQueuedLow() != 2 {
		t.Fatalf("peak waiting population %d, want exactly the cap 2", ch.MaxQueuedLow())
	}
	if ch.TotalShed() != 1 {
		t.Fatalf("shed %d, want 1", ch.TotalShed())
	}
}

// The rejection path is pure bookkeeping: no allocation, no event, no
// randomness — safe to hit millions of times in a saturated run.
func TestShedPathAllocFree(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "up", 1000)
	ch.SetQueueCap(1)
	ch.SetShedHook(func(Class) {})
	ch.Send(ClassData, 1000, nil, nil)
	ch.Send(ClassData, 1000, nil, nil) // cap reached
	before := k.Pending()
	if avg := testing.AllocsPerRun(1000, func() {
		if ch.Send(ClassData, 1000, nil, nil) {
			t.Fatal("admitted beyond cap")
		}
	}); avg != 0 {
		t.Fatalf("shed path allocates %v per send, want 0", avg)
	}
	if k.Pending() != before {
		t.Fatal("shed path scheduled events")
	}
}

// A steady report+control+data cycle, with one preemption, a fault model
// and a delivery adversary armed, allocates nothing: each class's line
// reuses its ring slots, completion is a method value bound once, the
// verdict runs inline, and the adversary's postponed deliveries ride
// recycled carriers.
func TestSendPathAllocFree(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, "down", 1000)
	ch.SetFaults(faults.NewGE(faults.Bernoulli(0.2), rng.New(1)), func(Class, faults.Verdict) {})
	adv := delivery.New(k, delivery.Config{
		Down: delivery.LinkParams{Jitter: 0.5, ReorderProb: 0.1, ReorderDelay: 5, DupProb: 0.05},
	}, rng.New(2), nil)
	ch.SetDelivery(adv.Down)
	delivered := 0
	onDelivered := func() { delivered++ }
	var tx txCounter
	sendReport := func() { ch.Send(ClassReport, 100, nil, sim.Func(onDelivered)) }
	cycle := func() {
		ch.Send(ClassData, 1000, nil, sim.Func(onDelivered))
		ch.Send(ClassControl, 100, &tx, sim.Func(onDelivered))
		k.Schedule(0.5, sendReport) // lands mid-data: one preemption
		for k.Step() {
		}
	}
	for i := 0; i < 16; i++ { // grow the lines and the event freelist
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("admitted send path allocates %v per cycle, want 0", avg)
	}
	if ch.Preemptions() != 117 || ch.Delivered() != 3*117 {
		t.Fatalf("preemptions %d, completions %d over 117 cycles", ch.Preemptions(), ch.Delivered())
	}
	if delivered == 0 || ch.TotalLost() == 0 {
		t.Fatalf("delivered %d, lost %d: fault model or receivers never ran", delivered, ch.TotalLost())
	}
	if tx != 117 {
		t.Fatalf("transmission-start observer ran %d times over 117 cycles", tx)
	}
}

// txCounter is a TxObserver that counts transmission starts.
type txCounter int

func (c *txCounter) TxStart(sim.Time) { *c++ }

// TestChannelService pins the single-server discipline the channel
// implements for the paper's three classes: strict class priority among
// waiting messages, FIFO within a class, preemptive-resume for reports
// only, asynchronous completion, and exact busy-time accounting. The
// channel runs at 1 bit/s, so a message's size is its service time; a
// case that names an order expects the receivers to run in it.
func TestChannelService(t *testing.T) {
	type logFn func(name string) func()
	cases := []struct {
		name  string
		run   func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn)
		order []string
	}{{
		name: "report-control-data-order",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassReport, 5, nil, sim.Func(log("r1")))
			ch.Send(ClassData, 1, nil, sim.Func(log("d")))
			ch.Send(ClassControl, 1, nil, sim.Func(log("c")))
			ch.Send(ClassReport, 1, nil, sim.Func(log("r2")))
			k.Run(sim.EndOfTime)
		},
		order: []string{"r1", "r2", "c", "d"},
	}, {
		name: "report-never-preempts-report",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassReport, 10, nil, sim.Func(log("a")))
			k.Schedule(1, func() { ch.Send(ClassReport, 1, nil, sim.Func(log("b"))) })
			k.Run(sim.EndOfTime)
			if ch.Preemptions() != 0 || k.Now() != 11 {
				t.Errorf("preemptions %d, drained at %v; want 0 and 11", ch.Preemptions(), k.Now())
			}
		},
		order: []string{"a", "b"},
	}, {
		name: "preempted-resumes-first",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassData, 10, nil, sim.Func(log("victim")))
			k.Schedule(2, func() {
				ch.Send(ClassReport, 4, nil, sim.Func(log("report")))
				ch.Send(ClassData, 1, nil, sim.Func(log("late")))
			})
			k.Run(sim.EndOfTime)
			if k.Now() != 15 {
				t.Errorf("drained at %v, want 15", k.Now())
			}
		},
		order: []string{"report", "victim", "late"},
	}, {
		name: "zero-size-async",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassData, 0, nil, sim.Func(log("zero")))
			if ch.Delivered() != 0 {
				t.Error("zero-size message completed inside Send")
			}
			k.Run(sim.EndOfTime)
		},
		order: []string{"zero"},
	}, {
		name: "send-from-callback",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			first, second := log("first"), log("second")
			ch.Send(ClassData, 5, nil, sim.Func(func() {
				first()
				ch.Send(ClassData, 5, nil, sim.Func(second))
			}))
			k.Run(sim.EndOfTime)
			if k.Now() != 10 {
				t.Errorf("second delivered at %v, want 10", k.Now())
			}
		},
		order: []string{"first", "second"},
	}, {
		name: "busy-utilization-max-queue",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassData, 30, nil, nil)
			ch.Send(ClassData, 30, nil, nil)
			k.Run(100)
			if math.Abs(ch.BusyTime()-60) > 1e-9 {
				t.Errorf("busy %v, want 60", ch.BusyTime())
			}
			if u := ch.Utilization(100); math.Abs(u-0.6) > 1e-9 {
				t.Errorf("utilization %v, want 0.6", u)
			}
			if ch.Utilization(0) != 0 || ch.MaxQueueLen() != 1 {
				t.Errorf("Utilization(0) %v, max queue %d; want 0 and 1", ch.Utilization(0), ch.MaxQueueLen())
			}
		},
	}, {
		name: "utilization-mid-service",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			ch.Send(ClassData, 100, nil, nil)
			k.Run(50)
			if u := ch.Utilization(50); math.Abs(u-1) > 1e-9 {
				t.Errorf("mid-service utilization %v, want 1", u)
			}
			if ch.BusyTime() != 50 || ch.Utilization(0) != 0 {
				t.Errorf("busy %v, Utilization(0) %v; want 50 and 0", ch.BusyTime(), ch.Utilization(0))
			}
		},
	}, {
		name: "saturated-work-conserved",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			for i := 0; i < 50; i++ {
				ch.Send(ClassData, 10, nil, nil)
			}
			k.Run(200)
			if u := ch.Utilization(200); math.Abs(u-1) > 1e-9 || ch.Delivered() != 20 {
				t.Errorf("utilization %v, %d completed; want 1 and 20", u, ch.Delivered())
			}
		},
	}, {
		name: "busy-conserved-across-preemptions",
		run: func(t *testing.T, k *sim.Kernel, ch *Channel, log logFn) {
			total := 0.0
			for i := 0; i < 5; i++ {
				ch.Send(ClassData, 7, nil, nil)
				total += 7
			}
			for i := 0; i < 5; i++ {
				k.At(sim.Time(i)*6+3, func() { ch.Send(ClassReport, 2, nil, nil) })
				total += 2
			}
			k.Run(sim.EndOfTime)
			if math.Abs(ch.BusyTime()-total) > 1e-9 || ch.Delivered() != 10 {
				t.Errorf("busy %v over %d completions, want %v over 10", ch.BusyTime(), ch.Delivered(), total)
			}
			if ch.Preemptions() != 5 {
				t.Errorf("preemptions %d, want 5", ch.Preemptions())
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			ch := NewChannel(k, "link", 1)
			var order []string
			tc.run(t, k, ch, func(name string) func() {
				return func() { order = append(order, name) }
			})
			if tc.order != nil && !slices.Equal(order, tc.order) {
				t.Errorf("delivery order %v, want %v", order, tc.order)
			}
		})
	}
}
