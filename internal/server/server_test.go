package server

import (
	"math"
	"testing"

	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/workload"
)

// fakeReceiver records every delivery.
type fakeReceiver struct {
	id        int32
	connected bool

	reports    []report.Report
	reportAt   []sim.Time
	validities []*report.ValidityReport
	items      []int32
	itemTS     []float64
	itemVer    []int32
	busy       []int32
}

func (f *fakeReceiver) ID() int32       { return f.id }
func (f *fakeReceiver) Connected() bool { return f.connected }
func (f *fakeReceiver) DeliverReport(r report.Report, now sim.Time) {
	f.reports = append(f.reports, r)
	f.reportAt = append(f.reportAt, now)
}
func (f *fakeReceiver) DeliverValidity(v *report.ValidityReport, now sim.Time) {
	f.validities = append(f.validities, v)
}
func (f *fakeReceiver) DeliverItem(id int32, version int32, ts float64, now sim.Time) {
	f.items = append(f.items, id)
	f.itemVer = append(f.itemVer, version)
	f.itemTS = append(f.itemTS, ts)
}
func (f *fakeReceiver) DeliverBusy(id int32, now sim.Time) {
	f.busy = append(f.busy, id)
}

func newTestServer(t *testing.T, schemeName string, downBps float64) (*sim.Kernel, *Server, *db.Database) {
	t.Helper()
	scheme, err := core.Lookup(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(1000)
	k := sim.New()
	d := db.New(1000, false)
	down := netsim.NewChannel(k, "down", downBps)
	srv := New(k, d, down, Config{
		Scheme:                 scheme.NewServer(params),
		Params:                 params,
		ItemBits:               8192,
		UpdateAccess:           workload.UniformAccess{N: 1000},
		UpdateItems:            rng.Fixed{N: 5},
		MeanUpdateInterarrival: 100,
	}, rng.New(7))
	return k, srv, d
}

func TestBroadcastSchedule(t *testing.T) {
	k, srv, _ := newTestServer(t, "ts", 1e9) // effectively instant delivery
	a := &fakeReceiver{id: 0, connected: true}
	srv.Attach(a)
	srv.Start()
	k.Run(101) // five periods of L = 20, plus the last transmission time
	if len(a.reports) != 5 {
		t.Fatalf("reports = %d, want 5", len(a.reports))
	}
	for i, r := range a.reports {
		want := float64(i+1) * 20
		if r.Time() != want {
			t.Fatalf("report %d stamped %v, want %v", i, r.Time(), want)
		}
		// Delivery follows transmission, which is ~instant here.
		if a.reportAt[i] < want || a.reportAt[i] > want+1 {
			t.Fatalf("report %d delivered at %v", i, a.reportAt[i])
		}
	}
	if srv.ReportsSent[report.KindTS] != 5 {
		t.Fatalf("sent counter = %v", srv.ReportsSent)
	}
}

func TestBroadcastSkipsDisconnected(t *testing.T) {
	k, srv, _ := newTestServer(t, "ts", 1e9)
	on := &fakeReceiver{id: 0, connected: true}
	off := &fakeReceiver{id: 1, connected: false}
	srv.Attach(on)
	srv.Attach(off)
	srv.Start()
	k.Run(25)
	if len(on.reports) != 1 || len(off.reports) != 0 {
		t.Fatalf("fanout: on=%d off=%d", len(on.reports), len(off.reports))
	}
}

func TestUpdateLoopDrivesDatabase(t *testing.T) {
	k, srv, d := newTestServer(t, "ts", 1e9)
	srv.Start()
	k.Run(10000) // ~100 transactions x 5 items
	if d.Updates() < 300 || d.Updates() > 700 {
		t.Fatalf("updates = %d, want ~500", d.Updates())
	}
	if d.NewestUpdateTime() <= 0 {
		t.Fatal("no update times recorded")
	}
}

func TestOnFetchDeliversWithVersionStamps(t *testing.T) {
	k, srv, d := newTestServer(t, "ts", 10000)
	rc := &fakeReceiver{id: 3, connected: true}
	srv.Attach(rc)
	d.Update(42, 5)
	k.At(10, func() { srv.OnFetch(3, []int32{42, 7}, 10) })
	k.Run(100)
	if len(rc.items) != 2 {
		t.Fatalf("items delivered = %d", len(rc.items))
	}
	if rc.items[0] != 42 || rc.itemVer[0] != 1 || rc.itemTS[0] != 5 {
		t.Fatalf("item 42: ver=%d ts=%v", rc.itemVer[0], rc.itemTS[0])
	}
	// Never-updated item: version 0, timestamp clamped to 0.
	if rc.items[1] != 7 || rc.itemVer[1] != 0 || rc.itemTS[1] != 0 {
		t.Fatalf("item 7: ver=%d ts=%v", rc.itemVer[1], rc.itemTS[1])
	}
	// Two 8192-bit items at 10 kbit/s: ~1.64 s of channel time.
	if srv.ItemsServed != 2 {
		t.Fatalf("served = %d", srv.ItemsServed)
	}
}

func TestFetchSerializedOnDownlink(t *testing.T) {
	k, srv, _ := newTestServer(t, "ts", 8192) // one item per second
	rc := &fakeReceiver{id: 0, connected: true}
	srv.Attach(rc)
	k.Schedule(0, func() { srv.OnFetch(0, []int32{1, 2, 3}, 0) })
	k.Run(1.5)
	if len(rc.items) != 1 {
		t.Fatalf("after 1.5 s: %d items, want 1 (serialized channel)", len(rc.items))
	}
	k.Run(10)
	if len(rc.items) != 3 {
		t.Fatalf("items = %v", rc.items)
	}
}

func TestOnControlValidityRouting(t *testing.T) {
	k, srv, d := newTestServer(t, "ts-check", 1e9)
	rc := &fakeReceiver{id: 5, connected: true}
	srv.Attach(rc)
	d.Update(10, 50)
	msg := &core.ControlMsg{Check: &report.CheckRequest{
		Client: 5, Seq: 1, Tlb: 40, IDs: []int32{10, 11},
	}}
	k.At(60, func() { srv.OnControl(msg, 60) })
	k.Run(100)
	if len(rc.validities) != 1 {
		t.Fatalf("validities = %d", len(rc.validities))
	}
	v := rc.validities[0]
	if v.Seq != 1 || v.Client != 5 || len(v.Valid) != 2 {
		t.Fatalf("validity = %+v", v)
	}
	if v.Valid[0] || !v.Valid[1] {
		t.Fatalf("validity bits = %v (item 10 updated after Tlb)", v.Valid)
	}
	if srv.ChecksServed != 1 {
		t.Fatalf("checks served = %d", srv.ChecksServed)
	}
}

func TestFeedbackCounted(t *testing.T) {
	k, srv, _ := newTestServer(t, "aaw", 1e9)
	msg := &core.ControlMsg{Feedback: &report.Feedback{Client: 1, Tlb: 5}}
	k.At(1, func() { srv.OnControl(msg, 1) })
	k.Run(10)
	if srv.FeedbacksSeen != 1 {
		t.Fatalf("feedbacks = %d", srv.FeedbacksSeen)
	}
}

func TestIROverrunDetection(t *testing.T) {
	// BS reports on a 1000-item database are ~2 kbit; on a 90 bit/s
	// downlink they take longer than the 20 s period, so every later
	// report overruns.
	k, srv, d := newTestServer(t, "bs", 90)
	d.Update(1, 1)
	srv.Start()
	k.Run(200)
	if srv.IROverruns == 0 {
		t.Fatal("no overruns detected on a hopeless downlink")
	}
}

func TestAttachPanics(t *testing.T) {
	_, srv, _ := newTestServer(t, "ts", 1e9)
	srv.Attach(&fakeReceiver{id: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach accepted")
		}
	}()
	srv.Attach(&fakeReceiver{id: 1})
}

func TestUnknownClientPanics(t *testing.T) {
	k, srv, _ := newTestServer(t, "ts", 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("fetch from unknown client accepted")
		}
	}()
	_ = k
	srv.OnFetch(99, []int32{1}, 0)
}

func TestReportBitsAccounting(t *testing.T) {
	k, srv, d := newTestServer(t, "ts", 1e9)
	srv.Attach(&fakeReceiver{id: 0, connected: true})
	d.Update(1, 1)
	d.Update(2, 2)
	srv.Start()
	k.Run(20)
	bits := srv.ReportBits[report.KindTS]
	// One report with two entries: 64 + 2*(10+64) = 212 bits.
	if math.Abs(bits-212) > 1e-9 {
		t.Fatalf("report bits = %v", bits)
	}
	if srv.Database() != d {
		t.Fatal("database accessor")
	}
}
