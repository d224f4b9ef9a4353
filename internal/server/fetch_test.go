package server

import (
	"testing"

	"mobicache/internal/delivery"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
)

// itemHook is a receiver that runs onItem after recording each item.
type itemHook struct {
	fakeReceiver
	onItem func(id int32)
}

func (h *itemHook) DeliverItem(id int32, version int32, ts float64, now sim.Time) {
	h.fakeReceiver.DeliverItem(id, version, ts, now)
	if h.onItem != nil {
		h.onItem(id)
	}
}

// delivered lists the (id, version, ts) triples a receiver got.
type itemTriple struct {
	id, ver int32
	ts      float64
}

func delivered(f *fakeReceiver) []itemTriple {
	var out []itemTriple
	for i, id := range f.items {
		out = append(out, itemTriple{id, f.itemVer[i], f.itemTS[i]})
	}
	return out
}

// pendingSlots counts the pending table's occupied slots.
func pendingSlots(srv *Server) int {
	n := 0
	for _, p := range srv.pending {
		if p != nil {
			n++
		}
	}
	return n
}

// coalescing configures the admission path with coalescing on.
func coalescing(c *Config) { c.Coalesce = true }

// TestPendingFetchRecordReuse pins the pending-fetch freelist against
// the delivery adversary. The downlink holds one waiting item, so a
// burst of fetches sheds, and every completed item is delivered twice
// (DupProb 1). Shed records must be reused and must never enter the
// table; a duplicated completion must reach exactly the original waiters
// with the same (id, version, ts); and it must not touch a record
// admitted, between the two runs, for another item.
func TestPendingFetchRecordReuse(t *testing.T) {
	k, srv, d := newTestServer(t, "ts", 8192, coalescing) // one item per second
	srv.down.SetQueueCap(1)
	adv := delivery.New(k, delivery.Config{Down: delivery.LinkParams{DupProb: 1}}, rng.New(3), nil)
	srv.down.SetDelivery(adv.Down)
	d.Update(10, 0.5)

	a := &itemHook{fakeReceiver: fakeReceiver{id: 0, connected: true}}
	b := &itemHook{fakeReceiver: fakeReceiver{id: 1, connected: true}}
	c := &itemHook{fakeReceiver: fakeReceiver{id: 2, connected: true}}
	for _, r := range []Receiver{a, b, c} {
		srv.Attach(r)
	}

	var rec10, spare *pendingFetch
	k.At(1, func() {
		// 10 goes on the air, 11 takes the one waiting slot, 12 is shed
		// and its record goes on the freelist.
		srv.OnFetch(0, []int32{10, 11, 12}, 1)
		rec10, spare = srv.pending[10], srv.freeFetch
		if spare == nil || srv.pending[12] != nil {
			t.Fatal("shed fetch of 12 did not return its record to the freelist")
		}
		if spare.w0 != nil {
			t.Fatal("the freelist record still holds its shed requester")
		}
		if n := pendingSlots(srv); n != 2 || srv.pendingN != 2 {
			t.Fatalf("after admitting 10 and 11: %d slots, pendingN %d, want 2 and 2", n, srv.pendingN)
		}
		srv.OnFetch(1, []int32{10}, 1) // coalesces onto 10's record
		srv.OnFetch(2, []int32{13}, 1) // shed again: reuses the spare
		if srv.freeFetch != spare || spare.id != 13 || pendingSlots(srv) != 2 {
			t.Fatalf("second shed did not reuse the freelist record (spare id %d, %d pending)",
				spare.id, pendingSlots(srv))
		}
		// Send first: the shed fetch never entered the table.
		if srv.pending[13] != nil || srv.pendingN != 2 {
			t.Fatalf("shed fetch of 13 touched the table: slot %p, pendingN %d", srv.pending[13], srv.pendingN)
		}
	})
	// Right after the first delivery of item 10 (an event queued ahead of
	// its duplicate), c fetches 20, 21 and 22: 20 takes the waiting slot
	// behind 11 on the spare record, and 21 and 22 are shed, the second
	// on the record the first returned.
	var rec20 *pendingFetch
	a.onItem = func(id int32) {
		if id != 10 || rec20 != nil {
			return
		}
		k.Schedule(0, func() {
			before := srv.pendingN
			srv.OnFetch(2, []int32{20, 21, 22}, k.Now())
			rec20 = srv.pending[20]
			if rec20 != spare {
				t.Fatal("item 20 was not admitted on the freelist record")
			}
			if f := srv.freeFetch; f == nil || f.id != 22 || f == rec20 {
				t.Fatal("shed fetch of 22 did not return its record to the freelist")
			}
			if srv.pending[21] != nil || srv.pending[22] != nil || srv.pendingN != before+1 {
				t.Fatalf("shed fetches entered the table: pendingN %d -> %d", before, srv.pendingN)
			}
		})
	}
	k.Run(100)

	want10 := itemTriple{10, 1, 0.5}
	if got := delivered(&b.fakeReceiver); len(got) != 2 || got[0] != want10 || got[1] != want10 {
		t.Fatalf("coalesced waiter got %v, want item 10 twice as %v", got, want10)
	}
	var aGot []itemTriple
	for _, it := range delivered(&a.fakeReceiver) {
		if it.id == 10 {
			aGot = append(aGot, it)
		}
	}
	if len(aGot) != 2 || aGot[0] != want10 || aGot[1] != want10 {
		t.Fatalf("admitting client got item 10 as %v, want twice as %v", aGot, want10)
	}
	if got := delivered(&a.fakeReceiver); len(got) != 4 || got[2].id != 11 || got[3].id != 11 {
		t.Fatalf("admitting client got %v, want items 10, 10, 11, 11", got)
	}
	want20 := itemTriple{20, 0, 0}
	if got := delivered(&c.fakeReceiver); len(got) != 2 || got[0] != want20 || got[1] != want20 {
		t.Fatalf("client 2 got %v, want item 20 twice (10's duplicate must not reach it)", got)
	}
	if rec10.w0 != a || len(rec10.more) != 1 || rec10.more[0] != b || rec10.id != 10 {
		t.Fatalf("item 10's record changed after admission: id %d, %d coalesced waiters", rec10.id, len(rec10.more))
	}
	if rec20.w0 != c || len(rec20.more) != 0 || rec20.id != 20 {
		t.Fatalf("item 20's record was touched: id %d, %d coalesced waiters", rec20.id, len(rec20.more))
	}
	if n := pendingSlots(srv); n != 0 {
		t.Fatalf("%d entries left in the pending table", n)
	}
	// Three transmissions (10, 11, 20) were admitted and each completion
	// ran twice. The teardown decrements pendingN on every run, so the
	// duplicates take it to -3: the count is exact only once a
	// transmission's accounting is torn down before the delivery
	// adversary, not in its completion.
	if srv.pendingN != -3 {
		t.Fatalf("pendingN = %d after three duplicated completions, want -3", srv.pendingN)
	}
}

// TestShedFetchKeepsPendingSlot pins the send-first order without
// coalescing: a shed re-fetch of an item whose transmission is pending
// must leave that transmission's slot and pendingN as they were, since
// the shed send never entered the table.
func TestShedFetchKeepsPendingSlot(t *testing.T) {
	k, srv, _ := newTestServer(t, "ts", 8192, func(c *Config) { c.PendingCap = 8 })
	srv.down.SetQueueCap(1)
	a := &fakeReceiver{id: 0, connected: true}
	srv.Attach(a)
	k.At(1, func() {
		srv.OnFetch(0, []int32{10, 11}, 1) // 10 on the air, 11 waiting
		rec10 := srv.pending[10]
		srv.OnFetch(0, []int32{10}, 1) // the queue is full: shed
		if srv.pending[10] != rec10 || srv.pendingN != 2 {
			t.Fatalf("shed re-fetch of 10 changed the table: slot kept %v, pendingN %d",
				srv.pending[10] == rec10, srv.pendingN)
		}
	})
	k.Run(100)
	if len(a.items) != 2 || pendingSlots(srv) != 0 || srv.pendingN != 0 {
		t.Fatalf("got items %v, %d slots, pendingN %d; want 10, 11 and an empty table",
			a.items, pendingSlots(srv), srv.pendingN)
	}
}

// TestPendingFetchCrash pins the pending table across a server crash. A
// crash while fetches are pending leaves every slot nil and pendingN 0;
// a completion from the pre-crash epoch still delivers to its waiters,
// but it neither decrements the new epoch's pendingN nor clears a slot a
// post-crash fetch of the same item now holds.
func TestPendingFetchCrash(t *testing.T) {
	// One item per second; crash is called by hand, and the restart it
	// draws comes 1e-9 s later.
	k, srv, _ := newTestServer(t, "ts", 8192, coalescing, func(c *Config) {
		c.CrashMTBF, c.CrashMTTR, c.CrashRNG = 1e9, 1e-9, rng.New(5)
	})
	a := &fakeReceiver{id: 0, connected: true}
	b := &fakeReceiver{id: 1, connected: true}
	c := &fakeReceiver{id: 2, connected: true}
	for _, r := range []Receiver{a, b, c} {
		srv.Attach(r)
	}
	var old10, new10 *pendingFetch
	k.At(1, func() {
		srv.OnFetch(0, []int32{10, 11}, 1) // 10 on the air until 2, 11 until 3
		srv.OnFetch(1, []int32{10}, 1)     // coalesced onto 10
		old10 = srv.pending[10]
		if n := pendingSlots(srv); n != 2 || srv.pendingN != 2 {
			t.Fatalf("before the crash: %d slots, pendingN %d, want 2 and 2", n, srv.pendingN)
		}
	})
	k.At(1.5, func() {
		srv.crash()
		if n := pendingSlots(srv); n != 0 || srv.pendingN != 0 {
			t.Fatalf("after the crash: %d slots, pendingN %d, want 0 and 0", n, srv.pendingN)
		}
	})
	k.At(1.6, func() {
		if srv.Down() {
			t.Fatal("server still down")
		}
		srv.OnFetch(2, []int32{10, 12}, k.Now()) // new epoch: 10 until 4, 12 until 5
		new10 = srv.pending[10]
		if new10 == nil || new10 == old10 || srv.pendingN != 2 {
			t.Fatalf("post-crash fetch of 10 not admitted afresh (pendingN %d)", srv.pendingN)
		}
	})
	k.At(3.5, func() { // the pre-crash transmissions of 10 and 11 are done
		if srv.pendingN != 2 || srv.pending[10] != new10 || srv.pending[12] == nil {
			t.Fatalf("pre-crash completions touched the new epoch: pendingN %d, slot 10 replaced %v",
				srv.pendingN, srv.pending[10] != new10)
		}
	})
	k.Run(100)

	if got := a.items; len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("admitting client got %v, want the pre-crash items 10, 11", got)
	}
	if got := b.items; len(got) != 1 || got[0] != 10 {
		t.Fatalf("coalesced waiter got %v, want the pre-crash item 10", got)
	}
	if got := c.items; len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Fatalf("post-crash client got %v, want 10, 12", got)
	}
	if n := pendingSlots(srv); n != 0 || srv.pendingN != 0 {
		t.Fatalf("after every completion: %d slots, pendingN %d, want 0 and 0", n, srv.pendingN)
	}
}
