package population

import (
	"fmt"
	"runtime"
	"testing"

	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/workload"
)

// benchPopulation builds an n-client population sized for the scale axis:
// a 1000-item space and 8-entry caches keep a million clients inside a
// laptop's memory while still exercising the word-indexed bitmaps and the
// shared slot arenas. Returns the population and the arena bytes it cost.
func benchPopulation(n int) (*Population, *sim.Kernel, uint64) {
	k := sim.New()
	up := netsim.NewChannel(k, "uplink", 1e9)
	params := core.DefaultParams(1000)
	scheme, err := core.Lookup("ts")
	if err != nil {
		panic(err)
	}
	wl := workload.Uniform(1000)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(k, up, stubServer{}, Config{
		Clients:       n,
		Side:          scheme.NewClient(params),
		Params:        params,
		CacheCapacity: 8,
		QueryAccess:   wl.Query,
		QueryItems:    wl.QueryItems,
		MeanThink:     100,
		MeanDisc:      400,
		ProbDisc:      0.1,
	}, rng.New(1), new(cache.Arena))
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := after.HeapAlloc - before.HeapAlloc

	// Steady-state cache contents: ids the tick's report never names, so
	// every report entry costs one bitmap miss per client and the contents
	// never churn between ticks. Tlb inside the reports' window keeps the
	// first tick from dropping them.
	for i := 0; i < n; i++ {
		for id := int32(0); id < 4; id++ {
			p.states[i].Cache.Put(500+id, 1e9, 1)
		}
		p.states[i].Tlb = tickStart
	}
	return p, k, bytes
}

// tickStart is the broadcast time of the first tick report.
const tickStart = 1000

// tickReports is the fan-out payload: two consecutive timestamp-window
// reports naming a handful of updated items, exactly what the server
// broadcasts every period. Ticks alternate between them, because a
// delivered report is immutable: the client halves index each report by
// its pointer.
func tickReports() [2]*report.TSReport {
	var rs [2]*report.TSReport
	for i := range rs {
		t := tickStart + 20*float64(i)
		rs[i] = &report.TSReport{
			T:           t,
			WindowStart: t - 200,
			Entries: []db.UpdateEntry{
				{ID: 0, TS: t - 1}, {ID: 63, TS: t - 1},
				{ID: 64, TS: t - 1}, {ID: 999, TS: t - 1},
			},
		}
	}
	return rs
}

// tick fans one report out to every client — the aggregate broadcast
// step the engine performs once per period.
func tick(p *Population, r *report.TSReport, now sim.Time) {
	for i := range p.handles {
		p.handles[i].DeliverReport(r, now)
	}
}

// BenchmarkAggregateTick measures the broadcast fan-out at population
// scale: one op is one full tick (report delivery to every client). The
// steady-state tick must not allocate — the cost of waking a million
// clients is pointer math over the flat arenas, nothing else — and the
// bytes/client metric records what the whole population costs to hold.
func BenchmarkAggregateTick(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10_000 {
				b.Skip("large populations skipped in -short mode")
			}
			p, _, bytes := benchPopulation(n)
			rs := tickReports()
			tick(p, rs[1], sim.Time(rs[1].T)) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := rs[i&1]
				tick(p, r, sim.Time(r.T))
			}
			b.StopTimer()
			// After the timed region: ResetTimer deletes user metrics, so
			// the bytes/client figure must land here.
			b.ReportMetric(float64(bytes)/float64(n), "bytes/client")
			if got := p.Count(0).ReportsHeard; got < int64(b.N) {
				b.Fatalf("fan-out did not reach client 0: heard %d of %d", got, b.N)
			}
		})
	}
}

// TestAggregateTickZeroAlloc is the steady-state allocation contract the
// benchmark relies on, enforced in the ordinary test run: after the first
// tick, delivering a broadcast to the whole population performs zero heap
// allocations.
func TestAggregateTickZeroAlloc(t *testing.T) {
	p, _, _ := benchPopulation(2000)
	rs := tickReports()
	tick(p, rs[1], sim.Time(rs[1].T))
	tickN := 0
	avg := testing.AllocsPerRun(10, func() {
		r := rs[tickN&1]
		tickN++
		tick(p, r, sim.Time(r.T))
	})
	if avg != 0 {
		t.Fatalf("steady-state tick allocates: %v allocs per 2000-client fan-out", avg)
	}
	if p.Count(0).ReportsHeard == 0 {
		t.Fatal("zero-alloc loop delivered nothing")
	}
	if got := p.states[0].Cache.Len(); got != 4 {
		t.Fatalf("client 0 holds %d items after the ticks, want its 4", got)
	}
}

// handleReportRig is one AAW client holding occupancy items of a 10-slot
// cache over a 1000-item space, validated at the time of a report
// listing entries ids spread across the space. The cached copies are
// newer than every entry, so applying the report invalidates nothing and
// the state is the same after every call.
func handleReportRig(occupancy, entries int) (core.ClientSide, *core.ClientState, *report.TSReport) {
	const items, capacity, t = 1000, 10, 1000.0
	params := core.DefaultParams(items)
	st := &core.ClientState{Cache: cache.New(capacity, items), Tlb: t}
	for i := 0; i < occupancy; i++ {
		st.Cache.Put(int32(i*items/capacity), t, 1)
	}
	r := &report.TSReport{T: t, WindowStart: t - params.WindowSeconds()}
	for i := 0; i < entries; i++ {
		r.Entries = append(r.Entries, db.UpdateEntry{ID: int32(i * items / entries), TS: t - 1})
	}
	return core.AAW().NewClient(params), st, r
}

// handleReportCases are the occupancy × report-length points of the
// per-client report application: an empty cache, the agg-fanout caches
// (a few of ten slots), a full cache, each against a short and an 80-entry
// window.
var handleReportCases = [][2]int{{0, 4}, {0, 80}, {4, 4}, {4, 80}, {10, 4}, {10, 80}}

// BenchmarkHandleReport measures one client's HandleReport against a
// client cache — the per-client step of the broadcast fan-out. One op
// reapplies the same report, so the shared index is built once, as when a
// broadcast reaches a whole population.
func BenchmarkHandleReport(b *testing.B) {
	for _, c := range handleReportCases {
		b.Run(fmt.Sprintf("occupancy=%d/entries=%d", c[0], c[1]), func(b *testing.B) {
			side, st, r := handleReportRig(c[0], c[1])
			side.HandleReport(st, r, r.T)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				side.HandleReport(st, r, r.T)
			}
		})
	}
}

// TestHandleReportZeroAlloc is BenchmarkHandleReport's allocation
// contract in the ordinary test run: after the first call has sized the
// shared index and scratch, applying a report allocates nothing, on
// either walk.
func TestHandleReportZeroAlloc(t *testing.T) {
	for _, c := range handleReportCases {
		side, st, r := handleReportRig(c[0], c[1])
		side.HandleReport(st, r, r.T)
		if avg := testing.AllocsPerRun(100, func() { side.HandleReport(st, r, r.T) }); avg != 0 {
			t.Errorf("occupancy %d, %d entries: %v allocs per HandleReport", c[0], c[1], avg)
		}
		if st.Cache.Len() != c[0] {
			t.Errorf("occupancy %d, %d entries: cache holds %d after the calls", c[0], c[1], st.Cache.Len())
		}
	}
}

// handleReportBSRig is one client of scheme holding a full 200-slot cache
// over Table 1's 10000-item space, with a Tlb that makes a bit-sequences
// report select a middle level, so applying it walks the cache against
// the report's depth table. The report marks only odd ids and the cache
// holds even ones, so nothing is invalidated and every call starts from
// the same state once the returned Tlb is restored.
func handleReportBSRig(scheme core.Scheme) (core.ClientSide, *core.ClientState, *report.BSReport, float64) {
	const items, capacity = 10000, 200
	d := db.New(items, false)
	for i := 0; i < items/4; i++ {
		d.Update(int32(2*i+1), float64(i+1))
	}
	s := new(bitseq.Builder).Build(items, d)
	r := &report.BSReport{T: items, S: s}
	tlb := s.Levels[len(s.Levels)/2].TS
	st := &core.ClientState{Cache: cache.New(capacity, items), Tlb: tlb}
	for i := 0; i < capacity; i++ {
		st.Cache.Put(int32(i*items/capacity), tlb, 1)
	}
	return scheme.NewClient(core.DefaultParams(items)), st, r, tlb
}

// bsReportSchemes are the client halves that apply bit-sequences reports:
// BS itself and the IR(BS) fallback of the adaptive schemes.
var bsReportSchemes = []core.Scheme{core.BS(), core.AFW()}

// BenchmarkHandleReportBS measures one client's HandleReport against a
// bit-sequences report. One op reapplies the same report; it carries its
// depth table, so each call costs the level choice and the cache walk.
func BenchmarkHandleReportBS(b *testing.B) {
	for _, scheme := range bsReportSchemes {
		b.Run(scheme.Name(), func(b *testing.B) {
			side, st, r, tlb := handleReportBSRig(scheme)
			side.HandleReport(st, r, r.T)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Tlb = tlb
				side.HandleReport(st, r, r.T)
			}
		})
	}
}

// TestHandleReportBSZeroAlloc is BenchmarkHandleReportBS's allocation
// contract in the ordinary test run: applying a bit-sequences report
// sweeps the cache in place and allocates nothing.
func TestHandleReportBSZeroAlloc(t *testing.T) {
	for _, scheme := range bsReportSchemes {
		side, st, r, tlb := handleReportBSRig(scheme)
		if act, _ := r.S.Level(tlb); act != bitseq.InvalidateSet {
			t.Fatalf("rig Tlb %v selects %v, want invalidate-set", tlb, act)
		}
		side.HandleReport(st, r, r.T)
		if avg := testing.AllocsPerRun(100, func() {
			st.Tlb = tlb
			side.HandleReport(st, r, r.T)
		}); avg != 0 {
			t.Errorf("%s: %v allocs per HandleReport", scheme.Name(), avg)
		}
		if st.Cache.Len() != 200 || st.Salvages == 0 {
			t.Errorf("%s: cache holds %d, %d salvages after the calls", scheme.Name(), st.Cache.Len(), st.Salvages)
		}
	}
}

// TestHandleReportSIGZeroAlloc is the combined-signatures counterpart of
// TestHandleReportBSZeroAlloc. One SIG client holds a full 200-slot cache
// over Table 1's 10000-item space and hears two reports, alternately,
// that differ in group 0 only, so every call diffs the signatures and
// sweeps the cache. The first report sets the diff baseline; the cache
// is filled after it, and two warm-up rounds memoize the cached items'
// groups and remove any item no group but 0 covers. After them every
// cached item is vouched for, the state repeats, and applying a report
// allocates nothing.
func TestHandleReportSIGZeroAlloc(t *testing.T) {
	const items, capacity, groups = 10000, 200, 128
	side := core.SIG().NewClient(core.DefaultParams(items))
	st := &core.ClientState{Cache: cache.New(capacity, items)}
	var rs [2]*report.SIGReport
	for i := range rs {
		rs[i] = &report.SIGReport{T: float64(i + 1), Sigs: make([]uint64, groups), SigBits: 32}
	}
	rs[1].Sigs[0] = 1
	calls := 0
	apply := func() {
		r := rs[calls&1]
		calls++
		if out := side.HandleReport(st, r, r.T); !out.Ready {
			t.Fatalf("call %d: outcome %+v", calls, out)
		}
	}
	apply() // the baseline: a client without one drops its cache
	for i := 0; i < capacity; i++ {
		st.Cache.Put(int32(i*items/capacity), 0, 1)
	}
	for i := 0; i < 4; i++ {
		apply()
	}
	held := st.Cache.Len()
	if held == 0 {
		t.Fatal("warm-up emptied the cache")
	}
	if avg := testing.AllocsPerRun(100, apply); avg != 0 {
		t.Errorf("%v allocs per HandleReport", avg)
	}
	if st.Cache.Len() != held || st.Drops != 0 {
		t.Errorf("cache holds %d after the calls (want %d), %d drops", st.Cache.Len(), held, st.Drops)
	}
}
