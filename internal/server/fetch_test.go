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

// TestPendingFetchRecordReuse pins the pending-fetch freelist against
// the delivery adversary. The downlink holds one waiting item, so a
// burst of fetches sheds, and every completed item is delivered twice
// (DupProb 1). Shed records must be reused; a duplicated completion must
// reach exactly the original waiters with the same (id, version, ts);
// and it must not touch a record admitted, between the two runs, for
// another item.
func TestPendingFetchRecordReuse(t *testing.T) {
	k, srv, d := newTestServer(t, "ts", 8192) // one item per second
	srv.cfg.Coalesce = true
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
		srv.OnFetch(1, []int32{10}, 1) // coalesces onto 10's record
		srv.OnFetch(2, []int32{13}, 1) // shed again: reuses the spare
		if srv.freeFetch != spare || spare.id != 13 || len(srv.pending) != 2 {
			t.Fatalf("second shed did not reuse the freelist record (spare id %d, %d pending)",
				spare.id, len(srv.pending))
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
			srv.OnFetch(2, []int32{20, 21, 22}, k.Now())
			rec20 = srv.pending[20]
			if rec20 != spare {
				t.Fatal("item 20 was not admitted on the freelist record")
			}
			if f := srv.freeFetch; f == nil || f.id != 22 || f == rec20 {
				t.Fatal("shed fetch of 22 did not return its record to the freelist")
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
	if len(rec10.waiters) != 2 || rec10.waiters[0] != a || rec10.waiters[1] != b || rec10.id != 10 {
		t.Fatalf("item 10's record changed after admission: id %d, %d waiters", rec10.id, len(rec10.waiters))
	}
	if len(rec20.waiters) != 1 || rec20.waiters[0] != c || rec20.id != 20 {
		t.Fatalf("item 20's record was touched: id %d, %d waiters", rec20.id, len(rec20.waiters))
	}
	if len(srv.pending) != 0 {
		t.Fatalf("%d entries left in the pending table", len(srv.pending))
	}
}
