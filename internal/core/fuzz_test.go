package core

import (
	"math"
	"testing"

	"mobicache/internal/db"
	"mobicache/internal/rng"
)

// protocolFuzz drives one scheme through a random history of updates,
// broadcasts, fetches, missed reports (disconnections) and abandoned
// exchanges — directly at the protocol layer, with instant message
// delivery — and checks the validation invariant after every successful
// step: every cached item's version is at least the version that was
// current at the client's validation timestamp Tlb. This is the same
// invariant the engine checks end-to-end, but here it runs thousands of
// adversarial protocol interleavings per second.
func protocolFuzz(t *testing.T, scheme Scheme, seed uint64, rounds int) {
	t.Helper()
	const n = 300
	src := rng.New(seed)
	d := db.New(n, true)
	server := scheme.NewServer(DefaultParams(n))
	client := scheme.NewClient(DefaultParams(n))
	st := newClientState(1, 30, n)

	now := 0.0
	connected := true

	assertValid := func(context string) {
		ids := st.Cache.IDs(nil)
		for _, id := range ids {
			e, _ := st.Cache.Peek(id)
			if want := d.VersionAt(id, st.Tlb); e.Version < want {
				t.Fatalf("%s @%v: %s holds item %d version %d, but version at Tlb %v is %d",
					scheme.Name(), now, context, id, e.Version, st.Tlb, want)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		// Advance to the next broadcast boundary with random updates on
		// the way.
		next := math.Floor(now/20)*20 + 20
		for now < next {
			now += src.Exp(8)
			if now >= next {
				now = next
				break
			}
			d.Update(int32(src.Intn(n)), now)
		}

		// Random disconnection: miss this report entirely, possibly
		// abandoning an in-flight exchange.
		if src.Bool(0.25) {
			connected = false
			st.AbandonPending()
		} else {
			connected = true
		}
		if connected {
			out := client.HandleReport(st, server.BuildReport(d, now), now)
			if out.Send != nil {
				// Deliver the control message after a small delay; the
				// reply (if any) is applied unless the client "sleeps"
				// through it.
				arrive := now + src.Uniform(0.1, 2)
				if out.Send.Feedback != nil {
					st.FeedbackDeliveredAt = arrive
				}
				if v := server.HandleControl(d, out.Send, arrive); v != nil {
					if src.Bool(0.15) {
						// Reply lost to a sudden disconnection.
						st.AbandonPending()
					} else {
						out2 := client.HandleValidity(st, v, arrive+0.1)
						if out2.Ready {
							assertValid("after validity")
						}
					}
				}
			}
			if out.Ready {
				assertValid("after report")
			}
		}

		// Random fetches between reports (only meaningful if validated
		// recently; the protocol allows filling the cache any time).
		for i := src.Intn(4); i > 0; i-- {
			id := int32(src.Intn(n))
			ts := d.LastUpdate(id)
			if ts < 0 {
				ts = 0
			}
			st.Cache.Put(id, ts, d.Version(id))
		}
	}
}

func TestProtocolFuzz(t *testing.T) {
	for _, scheme := range []Scheme{TS(), TSCheck(), AT(), BS(), AFW(), AAW(), SIG()} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				protocolFuzz(t, scheme, seed, 400)
			}
		})
	}
}
