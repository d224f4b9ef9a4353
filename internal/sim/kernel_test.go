package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(5, func() { got = append(got, 2) })
	k.Schedule(1, func() { got = append(got, 1) })
	k.Schedule(9, func() { got = append(got, 3) })
	k.Run(EndOfTime)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != 9 {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(3, func() { got = append(got, i) })
	}
	k.Run(EndOfTime)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of order: %v", got)
		}
	}
}

func TestScheduleFromEvent(t *testing.T) {
	k := New()
	var times []Time
	k.Schedule(1, func() {
		times = append(times, k.Now())
		k.Schedule(2, func() { times = append(times, k.Now()) })
	})
	k.Run(EndOfTime)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	fired := 0
	k.Schedule(5, func() { fired++ })
	k.Schedule(10, func() { fired++ })
	k.Schedule(15, func() { fired++ })
	k.Run(10)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at or before the horizon)", fired)
	}
	if k.Now() != 10 {
		t.Fatalf("now = %v", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d", k.Pending())
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.Schedule(5, func() { fired = true })
	if !e.Scheduled() {
		t.Fatal("Scheduled() = false before cancel")
	}
	k.Cancel(e)
	k.Cancel(e)        // double cancel is a no-op
	k.Cancel(Handle{}) // zero handle is a no-op
	k.Run(EndOfTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("Scheduled() = true after cancel")
	}
}

// TestStaleHandleDoesNotCancelRecycledEvent pins the ABA guard: once an
// event fires, its struct returns to the freelist and may back a later
// Schedule call; a Cancel through the old handle must not touch the new
// occupant.
func TestStaleHandleDoesNotCancelRecycledEvent(t *testing.T) {
	k := New()
	stale := k.Schedule(1, func() {})
	k.Run(2) // fires; the struct is recycled
	fired := false
	fresh := k.Schedule(1, func() { fired = true })
	k.Cancel(stale) // stale: must be a no-op
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel knocked out the recycled event")
	}
	k.Run(EndOfTime)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if stale.Scheduled() {
		t.Fatal("stale handle reports Scheduled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := New()
	var got []int
	var events []Handle
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, k.Schedule(Time(i), func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 2 {
		k.Cancel(events[i])
	}
	k.Run(EndOfTime)
	if len(got) != 10 {
		t.Fatalf("got %d events", len(got))
	}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestPastSchedulePanics(t *testing.T) {
	k := New()
	k.Schedule(10, func() {})
	k.Run(EndOfTime)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k.At(5, func() {})
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestExecutedCount(t *testing.T) {
	k := New()
	for i := 0; i < 7; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run(EndOfTime)
	if k.Executed() != 7 {
		t.Fatalf("executed = %d", k.Executed())
	}
}

func TestStepEmpty(t *testing.T) {
	if New().Step() {
		t.Fatal("Step on empty calendar returned true")
	}
}

func TestEventTimeAccessor(t *testing.T) {
	k := New()
	e := k.Schedule(4, func() {})
	if e.Time() != 4 {
		t.Fatalf("event time = %v", e.Time())
	}
	k.Run(EndOfTime)
	if e.Time() != 0 {
		t.Fatalf("fired event time = %v, want 0", e.Time())
	}
}
