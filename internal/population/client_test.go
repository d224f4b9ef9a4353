package population

import (
	"math"
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/workload"
)

// Single-client unit tests driven through the client's Handle, with a
// fake server on the uplink and synthesized reports on the downlink.

// fakeServer records uplink arrivals and optionally auto-serves fetches.
type fakeServer struct {
	controls   []*core.ControlMsg
	controlAt  []sim.Time
	fetches    [][]int32
	serveItems func(clientID int32, ids []int32)
}

func (f *fakeServer) OnControl(msg *core.ControlMsg, now sim.Time) {
	f.controls = append(f.controls, msg)
	f.controlAt = append(f.controlAt, now)
}

func (f *fakeServer) OnFetch(clientID int32, ids []int32, now sim.Time) {
	f.fetches = append(f.fetches, append([]int32(nil), ids...))
	if f.serveItems != nil {
		f.serveItems(clientID, ids)
	}
}

type rig struct {
	k   *sim.Kernel
	srv *fakeServer
	p   *Population
	h   *Handle
	cnt *Counters
	st  *core.ClientState
	d   *db.Database
}

func newRig(t *testing.T, schemeName string, mod func(*Config)) *rig {
	t.Helper()
	scheme, err := core.Lookup(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(1000)
	k := sim.New()
	srv := &fakeServer{}
	cfg := Config{
		Clients:          1,
		Side:             scheme.NewClient(params),
		Params:           params,
		CacheCapacity:    20,
		QueryAccess:      workload.UniformAccess{N: 1000},
		QueryItems:       rng.Fixed{N: 5},
		MeanThink:        50,
		MeanDisc:         400,
		FetchRequestBits: 4096,
	}
	if mod != nil {
		mod(&cfg)
	}
	p := New(k, netsim.NewChannel(k, "up", 1e9), srv, cfg, rng.New(3), new(cache.Arena))
	r := &rig{k: k, srv: srv, p: p, h: p.Handle(0), cnt: p.Count(0), st: p.State(0), d: db.New(1000, false)}
	// Auto-serve fetches instantly (the engine routes them through the
	// downlink; unit tests shortcut it).
	srv.serveItems = func(clientID int32, ids []int32) {
		for _, id := range ids {
			r.h.DeliverItem(id, 1, k.Now(), k.Now())
		}
	}
	return r
}

// broadcast synthesizes a TS window report covering updates after
// t - 200 s and delivers it.
func (r *rig) broadcast(t float64) {
	rep := &report.TSReport{T: t, WindowStart: t - 200,
		Entries: r.d.UpdatedSince(t-200, nil)}
	r.h.DeliverReport(rep, t)
}

// broadcastEvery schedules a broadcast every 20 s up to horizon.
func (r *rig) broadcastEvery(horizon float64) {
	for tt := 20.0; tt <= horizon; tt += 20 {
		tt := tt
		r.k.At(tt, func() { r.broadcast(tt) })
	}
}

func TestQueryWaitsForNextReport(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	// No reports at all: no query can complete.
	r.k.Run(500)
	if r.cnt.QueriesAnswered != 0 {
		t.Fatalf("answered %d queries without any report", r.cnt.QueriesAnswered)
	}
	// Deliver a report: the pending query proceeds.
	r.broadcast(r.k.Now() + 1)
	r.k.Run(600)
	if r.cnt.QueriesAnswered == 0 {
		t.Fatal("query did not complete after a report")
	}
}

func TestPeriodicReportsDriveQueries(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	r.broadcastEvery(4000)
	r.k.Run(4000)
	// Think mean 50 s + report wait ~10 s: expect dozens of queries.
	if r.cnt.QueriesAnswered < 30 {
		t.Fatalf("answered = %d", r.cnt.QueriesAnswered)
	}
	if r.cnt.ReportsHeard == 0 || r.cnt.RespTime.Mean() <= 0 {
		t.Fatalf("heard=%d resp=%v", r.cnt.ReportsHeard, r.cnt.RespTime.Mean())
	}
	// Every query names 5 items, each a hit or a fetch.
	if r.cnt.ItemsRequested+r.cnt.ItemsFromCache != 5*r.cnt.QueriesAnswered {
		t.Fatalf("items %d+%d != 5*%d", r.cnt.ItemsRequested, r.cnt.ItemsFromCache, r.cnt.QueriesAnswered)
	}
}

func TestCacheHitsAvoidFetch(t *testing.T) {
	r := newRig(t, "ts", func(c *Config) {
		c.QueryAccess = workload.UniformAccess{N: 3}
		c.QueryItems = rng.Fixed{N: 3}
		c.CacheCapacity = 3
	})
	r.p.StartClient(0)
	r.broadcastEvery(1000)
	r.k.Run(1000)
	if r.cnt.QueriesAnswered < 3 {
		t.Fatalf("answered = %d", r.cnt.QueriesAnswered)
	}
	// After the first query warms the 3-item cache, later queries hit.
	if r.cnt.ItemsFromCache == 0 {
		t.Fatal("no cache hits despite a fully cacheable working set")
	}
	if len(r.srv.fetches) < 1 {
		t.Fatal("first query did not fetch")
	}
}

func TestConsistencyHookInvoked(t *testing.T) {
	var calls int
	r := newRig(t, "ts", func(c *Config) {
		c.QueryAccess = workload.UniformAccess{N: 2}
		c.QueryItems = rng.Fixed{N: 2}
		c.ConsistencyHook = func(clientID, itemID, version int32, tlb float64) {
			calls++
			if tlb <= 0 {
				t.Fatalf("hook tlb = %v", tlb)
			}
		}
	})
	r.p.StartClient(0)
	r.broadcastEvery(1000)
	r.k.Run(1000)
	if calls == 0 {
		t.Fatal("hook never invoked despite cache hits")
	}
}

func TestUplinkAccountingForChecks(t *testing.T) {
	r := newRig(t, "ts-check", nil)
	r.st.Cache.Put(5, 0, 0)
	// A report far beyond the window forces a check request.
	r.k.Schedule(0, func() {
		r.h.DeliverReport(&report.TSReport{T: 1000, WindowStart: 800}, 1000)
	})
	r.k.Run(2000)
	if len(r.srv.controls) != 1 || r.srv.controls[0].Check == nil {
		t.Fatalf("controls = %+v", r.srv.controls)
	}
	want := float64(r.srv.controls[0].Check.SizeBits(r.p.cfg.Params.Rep))
	if r.cnt.ValidationUplinkMsgs != 1 || r.cnt.ValidationUplinkBits != want {
		t.Fatalf("validation accounting: %d msgs %v bits, want 1 / %v",
			r.cnt.ValidationUplinkMsgs, r.cnt.ValidationUplinkBits, want)
	}
}

func TestFeedbackDeliveredAtSetOnDelivery(t *testing.T) {
	r := newRig(t, "aaw", nil)
	r.st.Cache.Put(5, 0, 0)
	r.k.Schedule(0, func() {
		r.h.DeliverReport(&report.TSReport{T: 1000, WindowStart: 800}, 1000)
	})
	if !math.IsInf(r.st.FeedbackDeliveredAt, 0) && r.st.FeedbackDeliveredAt != 0 {
		t.Fatal("premature delivery stamp")
	}
	r.k.Run(2000)
	if len(r.srv.controls) != 1 || r.srv.controls[0].Feedback == nil {
		t.Fatalf("controls = %+v", r.srv.controls)
	}
	if math.IsInf(r.st.FeedbackDeliveredAt, 1) {
		t.Fatal("FeedbackDeliveredAt never stamped")
	}
	if r.st.FeedbackDeliveredAt != r.srv.controlAt[0] {
		t.Fatalf("stamp %v != arrival %v", r.st.FeedbackDeliveredAt, r.srv.controlAt[0])
	}
}

func TestDisconnectionGapModel(t *testing.T) {
	r := newRig(t, "ts", func(c *Config) {
		c.ProbDisc = 1 // every gap is a disconnection
		c.MeanDisc = 100
	})
	r.p.StartClient(0)
	r.broadcastEvery(10000)
	r.k.Run(10000)
	if r.cnt.Disconnections == 0 || r.cnt.DisconnectedFor <= 0 {
		t.Fatalf("disconnections %d for %v s with ProbDisc = 1", r.cnt.Disconnections, r.cnt.DisconnectedFor)
	}
	// While disconnected, reports are not heard: far fewer than 500.
	if r.cnt.ReportsHeard >= 450 {
		t.Fatalf("heard %d of 500 reports despite constant disconnection", r.cnt.ReportsHeard)
	}
}

func TestDisconnectedClientIgnoresReports(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.connected[0] = false
	r.h.DeliverReport(&report.TSReport{T: 20}, 20)
	if r.cnt.ReportsHeard != 0 {
		t.Fatal("disconnected client heard a report")
	}
	if r.h.Connected() {
		t.Fatal("Connected() lies")
	}
}

func TestStaleValidityDropped(t *testing.T) {
	r := newRig(t, "ts-check", nil)
	// No check outstanding: a stray validity reply must be ignored.
	r.h.DeliverValidity(&report.ValidityReport{T: 10, Seq: 9}, 10)
	if r.cnt.StaleValidityDropped != 1 {
		t.Fatalf("stale drops = %d", r.cnt.StaleValidityDropped)
	}
}

func TestAbandonedCheckIgnoresLateReply(t *testing.T) {
	r := newRig(t, "ts-check", nil)
	r.st.Cache.Put(5, 0, 0)
	r.k.Schedule(0, func() {
		r.h.DeliverReport(&report.TSReport{T: 1000, WindowStart: 800}, 1000)
	})
	r.k.Run(10)
	if !r.st.AwaitingValidity {
		t.Fatal("no check outstanding")
	}
	seq := r.srv.controls[0].Check.Seq
	// The client disconnects, abandoning the exchange...
	r.st.AbandonPending()
	r.p.connected[0] = false
	// ...and the reply arrives while it sleeps.
	r.h.DeliverValidity(&report.ValidityReport{T: 1001, Seq: seq, Valid: []bool{false}}, 1001)
	if r.cnt.StaleValidityDropped != 1 {
		t.Fatal("late reply not dropped")
	}
	if _, ok := r.st.Cache.Peek(5); !ok {
		t.Fatal("late reply mutated the cache")
	}
}

func TestPerIntervalThinkModel(t *testing.T) {
	r := newRig(t, "ts", func(c *Config) {
		c.DiscPerInterval = true
		c.ProbDisc = 0.5
		c.MeanDisc = 50
		c.MeanThink = 200 // spans ~10 boundaries
	})
	r.p.StartClient(0)
	r.broadcastEvery(10000)
	r.k.Run(10000)
	if r.cnt.Disconnections == 0 {
		t.Fatal("per-interval model never disconnected")
	}
	if r.cnt.QueriesAnswered == 0 {
		t.Fatal("per-interval model answered nothing")
	}
}

func TestFetchRequestBitsAccounted(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	r.broadcastEvery(400)
	r.k.Run(400)
	if r.cnt.QueriesAnswered == 0 {
		t.Fatal("no queries")
	}
	if want := float64(len(r.srv.fetches)) * 4096; r.cnt.FetchUplinkBits != want {
		t.Fatalf("fetch bits = %v, want %v", r.cnt.FetchUplinkBits, want)
	}
}

func TestStormDownBlocksDeliveryAndCounts(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	r.k.Run(1)
	r.h.StormDown()
	r.h.StormDown() // idempotent
	if r.cnt.StormDisconnects != 1 || r.cnt.Disconnections != 1 {
		t.Fatalf("storm disconnects %d / total %d after an idempotent double StormDown, want 1 / 1",
			r.cnt.StormDisconnects, r.cnt.Disconnections)
	}
	if r.h.Connected() {
		t.Fatal("client connected while storm-downed")
	}
	heard := r.cnt.ReportsHeard
	r.broadcast(100)
	if r.cnt.ReportsHeard != heard {
		t.Fatal("storm-downed client heard a report")
	}
	r.h.DeliverItem(1, 1, 100, 100)
	if r.cnt.OfflineDrops != 1 {
		t.Fatalf("offline item delivery recorded %d drops, want 1", r.cnt.OfflineDrops)
	}
	r.h.StormUp(false)
	r.h.StormUp(false) // idempotent
	if !r.h.Connected() {
		t.Fatal("client still down after StormUp")
	}
	if r.cnt.StormDisconnects != 1 {
		t.Fatalf("storm disconnects %d after heal, want 1", r.cnt.StormDisconnects)
	}
}

func TestRestartWarmRestoresProtocolState(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	r.k.Run(1)
	r.h.CrashDown()
	if !r.h.CrashedDown() || r.cnt.Crashes != 1 {
		t.Fatalf("CrashDown: crashed=%v crashes=%d", r.h.CrashedDown(), r.cnt.Crashes)
	}
	r.h.Restart(&churn.Snapshot{
		Epoch: 2, PersistAt: 50, Tlb: 42,
		Entries: []cache.Entry{{ID: 9, TS: 40, Version: 3}},
	}, false)
	if r.h.CrashedDown() || !r.h.Connected() {
		t.Fatal("client not back up after warm restart")
	}
	if r.cnt.RestartsWarm != 1 || r.cnt.RestartsCold != 0 {
		t.Fatalf("restarts warm/cold = %d/%d, want 1/0", r.cnt.RestartsWarm, r.cnt.RestartsCold)
	}
	if r.st.Tlb != 42 || r.st.Epoch != 2 || r.st.Salvages != 1 {
		t.Fatalf("restored Tlb=%v Epoch=%d Salvages=%d, want 42 / 2 / 1", r.st.Tlb, r.st.Epoch, r.st.Salvages)
	}
	if _, ok := r.st.Cache.Peek(9); !ok {
		t.Fatal("restored cache is missing the snapshot entry")
	}
}

func TestRestartColdDropsAndCountsRejection(t *testing.T) {
	r := newRig(t, "ts", nil)
	r.p.StartClient(0)
	r.k.Run(1)
	r.st.Cache.Put(5, 10, 1)
	r.st.Tlb = 30
	r.h.CrashDown()
	r.h.Restart(nil, true)
	if r.cnt.RestartsCold != 1 || r.cnt.SnapshotRejects != 1 {
		t.Fatalf("cold restarts %d, rejects %d, want 1 / 1", r.cnt.RestartsCold, r.cnt.SnapshotRejects)
	}
	if r.st.Cache.Len() != 0 || r.st.Tlb != 0 || r.st.Epoch != 0 || r.st.Drops != 1 {
		t.Fatalf("cold restart left len=%d Tlb=%v Epoch=%d Drops=%d", r.st.Cache.Len(), r.st.Tlb, r.st.Epoch, r.st.Drops)
	}
}

func TestRestartWithoutCrashPanics(t *testing.T) {
	r := newRig(t, "ts", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Restart on a live client did not panic")
		}
	}()
	r.h.Restart(nil, false)
}

// TestReattachRoutesUplink moves a disconnected client to a second cell:
// its next uplink message reaches the new server, and the route table
// shares one entry per cell.
func TestReattachRoutesUplink(t *testing.T) {
	r := newRig(t, "ts-check", nil)
	other := &fakeServer{}
	up2 := netsim.NewChannel(r.k, "up2", 1e9)
	r.p.StartClient(0)
	r.k.Run(1)
	r.p.connected[0] = false
	r.p.Reattach(0, up2, other)
	r.p.Reattach(0, up2, other)
	if len(r.p.routes) != 2 {
		t.Fatalf("route table holds %d entries, want 2", len(r.p.routes))
	}
	r.p.connected[0] = true
	r.st.Cache.Put(5, 0, 0)
	r.k.Schedule(0, func() {
		r.h.DeliverReport(&report.TSReport{T: 1000, WindowStart: 800}, 1000)
	})
	r.k.Run(2)
	if len(other.controls) != 1 || len(r.srv.controls) != 0 {
		t.Fatalf("check reached the new cell %d times, the old %d", len(other.controls), len(r.srv.controls))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reattach of a connected, running client did not panic")
		}
	}()
	r.p.Reattach(0, up2, other)
}
