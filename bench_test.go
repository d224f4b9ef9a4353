// Benchmarks regenerating the paper's evaluation, one per figure, plus
// micro-benchmarks of the substrates. Each figure benchmark runs the
// figure's sweep family at a representative point for all four evaluated
// schemes and reports the headline metric per scheme as a custom unit, so
// `go test -bench=Fig` prints the same quantities the paper plots (at a
// reduced horizon; use cmd/experiments for the full-horizon sweeps).
package mobicache

import (
	"fmt"
	"runtime"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/churn"
	"mobicache/internal/db"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/metrics"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/server"
	"mobicache/internal/sim"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// benchHorizon keeps per-iteration cost reasonable; shapes (who wins, by
// what factor) already show at this length.
const benchHorizon = 5000

// benchFigure runs one sweep point of a figure for every evaluated scheme
// and reports the figure's metric per scheme.
func benchFigure(b *testing.B, figID string, x float64) {
	b.Helper()
	fig, err := exp.FigureByID(figID)
	if err != nil {
		b.Fatal(err)
	}
	totals := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for _, scheme := range exp.EvaluatedSchemes {
			c := fig.Sweep.Configure(x)
			c.Scheme = scheme
			c.SimTime = benchHorizon
			c.Seed = uint64(i + 1)
			r, err := engine.Run(c)
			if err != nil {
				b.Fatal(err)
			}
			switch fig.Metric {
			case exp.Throughput:
				totals[scheme] += float64(r.QueriesAnswered)
			case exp.UplinkPerQuery:
				totals[scheme] += r.UplinkBitsPerQuery
			}
		}
	}
	unit := "queries"
	if fig.Metric == exp.UplinkPerQuery {
		unit = "bits/query"
	}
	for _, scheme := range exp.EvaluatedSchemes {
		b.ReportMetric(totals[scheme]/float64(b.N), scheme+"_"+unit)
	}
}

// Figures 5/6: UNIFORM versus database size. The representative point is
// 40000 items, where the BS report already eats 40% of the downlink.
func BenchmarkFig05ThroughputVsDBSize(b *testing.B) { benchFigure(b, "fig5", 40000) }
func BenchmarkFig06UplinkVsDBSize(b *testing.B)     { benchFigure(b, "fig6", 40000) }

// Figures 7/8: UNIFORM versus disconnection probability (p = 0.4).
func BenchmarkFig07ThroughputVsProbDisc(b *testing.B) { benchFigure(b, "fig7", 0.4) }
func BenchmarkFig08UplinkVsProbDisc(b *testing.B)     { benchFigure(b, "fig8", 0.4) }

// Figures 9/10: UNIFORM versus mean disconnection time (1000 s).
func BenchmarkFig09ThroughputVsDiscTime(b *testing.B) { benchFigure(b, "fig9", 1000) }
func BenchmarkFig10UplinkVsDiscTime(b *testing.B)     { benchFigure(b, "fig10", 1000) }

// Figures 11/12: HOTCOLD versus database size (10000 items).
func BenchmarkFig11ThroughputVsDBSizeHotCold(b *testing.B) { benchFigure(b, "fig11", 10000) }
func BenchmarkFig12UplinkVsDBSizeHotCold(b *testing.B)     { benchFigure(b, "fig12", 10000) }

// Figures 13/14: HOTCOLD versus disconnection probability (p = 0.4).
func BenchmarkFig13ThroughputVsProbDiscHotCold(b *testing.B) { benchFigure(b, "fig13", 0.4) }
func BenchmarkFig14UplinkVsProbDiscHotCold(b *testing.B)     { benchFigure(b, "fig14", 0.4) }

// Figures 15/16: asymmetric channels at a 200 bit/s uplink — the
// crossover region where checking starts to lose to the adaptives.
func BenchmarkFig15AsymmetricUniform(b *testing.B) { benchFigure(b, "fig15", 200) }
func BenchmarkFig16AsymmetricHotCold(b *testing.B) { benchFigure(b, "fig16", 200) }

// Table 1's base configuration, one bench per scheme: the headline
// single-run cost of the whole simulator.
func BenchmarkBaseConfig(b *testing.B) {
	for _, scheme := range []string{"ts", "ts-check", "at", "bs", "afw", "aaw"} {
		b.Run(scheme, func(b *testing.B) {
			queries := int64(0)
			for i := 0; i < b.N; i++ {
				c := engine.Default()
				c.Scheme = scheme
				c.SimTime = benchHorizon
				c.Seed = uint64(i + 1)
				r, err := engine.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				queries += r.QueriesAnswered
			}
			b.ReportMetric(float64(queries)/float64(b.N), "queries")
		})
	}
}

// BenchmarkAdversarialMix runs the configs of mobibench's adversarial
// workload (adversarialConfig), 20 000 s each. It carries the highest
// event volume of any workload, so its B/op and allocs/op track the
// kernel calendar and the fetch path.
func BenchmarkAdversarialMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, scheme := range []string{"ts", "ts-check", "aaw"} {
			if _, err := engine.Run(adversarialConfig(j, scheme, 20000)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// adversarialConfig is mobibench's adversarial config j: the scheme under
// all four adversary layers at severity 2 (ChaosFaults(2),
// OverloadGuardrails, delivery and churn severity 2), with spans and a
// metrics registry, checker armed, over the given horizon.
func adversarialConfig(j int, scheme string, horizon float64) engine.Config {
	c := engine.Default()
	c.Scheme = scheme
	c.MeanDisc = 400
	c.Faults = exp.ChaosFaults(2)
	exp.OverloadGuardrails(&c)
	c.Delivery = delivery.Severity(2)
	c.Churn = churn.Severity(2)
	c.Spans = &engine.SpanOptions{}
	c.Metrics = metrics.New()
	c.SimTime = horizon
	c.Seed = rng.DeriveSeed(1, uint64(j))
	c.ConsistencyCheck = true
	return c
}

// TestAdversarialAllocCeiling guards the typed-observer send path in
// tier-1: one adversarial run (ts-check, 4 000 s) must stay under an
// allocation ceiling a little above what it measures. Every transmission
// used to bind one or two closures; a regression that brings them back
// adds thousands of allocations here: the run measures 24 962 (25 508
// under -race), against 35 981 when sends bound closures. The run is
// single-goroutine and seeded, so the count does not vary between runs.
func TestAdversarialAllocCeiling(t *testing.T) {
	const ceiling = 26500
	var err error
	got := testing.AllocsPerRun(1, func() {
		// Each run needs a fresh registry: a Config's Metrics is one
		// run's timeline.
		_, err = engine.Run(adversarialConfig(1, "ts-check", 4000))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocs per run", got)
	if got > ceiling {
		t.Fatalf("one adversarial ts-check run makes %v allocations, ceiling %d", got, ceiling)
	}
}

// BenchmarkSweepParallel measures the experiment harness end to end at
// 1, 2 and 4 workers over a fixed 16-cell sweep (2 points x 4 schemes x
// 2 seeds). The cells are independent simulations, so on a multi-core
// machine the 4-worker variant should run at least ~2x faster than
// serial; on a single core all three converge. The ns/op ratios prove
// the scaling — the determinism tests in internal/exp prove the results
// are bit-identical regardless.
func BenchmarkSweepParallel(b *testing.B) {
	sweep := func() *exp.Sweep {
		return &exp.Sweep{
			ID: "bench-par", XLabel: "Mean Disconnection Time (s)",
			Xs: []float64{400, 1200},
			Configure: func(x float64) engine.Config {
				c := engine.Default()
				c.ProbDisc = 0.1
				c.MeanDisc = x
				c.BufferPct = 0.01
				return c
			},
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration: RunSweep memoizes, and a
				// cached result would benchmark a map lookup.
				r := exp.NewRunner(exp.Options{SimTime: 2000, Seeds: []uint64{1, 2}, Workers: workers})
				if _, err := r.RunSweep(sweep()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks -----------------------------------------

func makeUpdatedDB(n, updates int) *db.Database {
	d := db.New(n, false)
	src := rng.New(11)
	now := 0.0
	for i := 0; i < updates; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(n)), now)
	}
	return d
}

// BenchmarkBitseqBuild times one server broadcast's structure build with
// a reused Builder. The rebuild cases apply one update before each build,
// as a broadcast after a changed period does, and fail unless the build
// allocates only the report it returns: the Structure, its level headers
// and its copy of the depth index. The unchanged case builds again with
// no update in between, which returns the previous structure, and fails
// on any allocation.
func BenchmarkBitseqBuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 80000} {
		d := makeUpdatedDB(n, n/4)
		src := rng.New(12)
		now := d.NewestUpdateTime()
		update := func() {
			now++
			d.Update(int32(src.Intn(n)), now)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var bd bitseq.Builder
			bd.Build(n, d)
			if got := testing.AllocsPerRun(10, func() { update(); bd.Build(n, d) }); got != 3 {
				b.Fatalf("%v allocs per build after an update, want 3", got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				update()
				bd.Build(n, d)
			}
		})
		b.Run(fmt.Sprintf("N=%d/unchanged", n), func(b *testing.B) {
			var bd bitseq.Builder
			bd.Build(n, d)
			if got := testing.AllocsPerRun(10, func() { bd.Build(n, d) }); got != 0 {
				b.Fatalf("%v allocs per build of an unchanged database, want 0", got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd.Build(n, d)
			}
		})
	}
}

// BenchmarkBitseqLocate times the client decision plus the depth lookups
// that turn its level into the invalidated part of a 200-item cache. The
// report carries its depth table, so a client decodes nothing.
func BenchmarkBitseqLocate(b *testing.B) {
	const n, cached = 10000, 200
	st := new(bitseq.Builder).Build(n, makeUpdatedDB(n, n/4))
	marked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, level := st.Level(float64(i % 1000))
		for id := 0; id < n; id += n / cached {
			if int(st.Depth[id]) > level {
				marked++
			}
		}
	}
	if marked == 0 {
		b.Fatal("vacuous: no lookup found a marked item")
	}
}

func BenchmarkBitseqEncode(b *testing.B) {
	const n = 10000
	st := new(bitseq.Builder).Build(n, makeUpdatedDB(n, n/4))
	w := bitio.NewWriter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		st.Encode(w)
	}
}

func BenchmarkReportEncodeTS(b *testing.B) {
	p := report.DefaultParams(10000)
	entries := make([]db.UpdateEntry, 50)
	for i := range entries {
		entries[i] = db.UpdateEntry{ID: int32(i), TS: float64(i)}
	}
	r := &report.TSReport{T: 1000, Entries: entries}
	w := bitio.NewWriter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		report.Encode(r, p, w)
	}
}

// BenchmarkCacheLookupPut measures a client's query path: a lookup, and
// a Put on a miss. Every queried item takes it, so it must not allocate.
func BenchmarkCacheLookupPut(b *testing.B) {
	c := cache.New(200, 10000)
	src := rng.New(5)
	now := 0.0
	step := func() {
		id := int32(src.Intn(10000))
		if _, ok := c.Lookup(id); !ok {
			c.Put(id, now, 1)
		}
		now++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if testing.AllocsPerRun(100, step) != 0 {
		b.Fatal("cache lookup/put path allocates")
	}
}

// BenchmarkCacheTouchAll measures the TS family's report path at fig5's
// largest database (N = 80 000, a 2% cache of 1 600 entries): a fetched
// item's Put, a confirming report's TouchAll and a report entry's Peek.
// TouchAll clears one bit per slot rather than walking the cache, and
// none of the three may allocate.
var benchEntry cache.Entry // keeps BenchmarkCacheTouchAll's Peek live

func BenchmarkCacheTouchAll(b *testing.B) {
	const items, capacity = 80000, 1600
	c := cache.New(capacity, items)
	src := rng.New(11)
	for c.Len() < capacity {
		c.Put(int32(src.Intn(items)), 0, 1)
	}
	now := 0.0
	step := func() {
		now++
		c.Put(int32(src.Intn(items)), now-0.5, 1)
		c.TouchAll(now)
		benchEntry, _ = c.Peek(int32(src.Intn(items)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if testing.AllocsPerRun(100, step) != 0 {
		b.Fatal("cache put/touch/peek path allocates")
	}
}

// BenchmarkRunSetup runs the configs of mobibench's update-heavy workload
// (bs, afw and ts-check over HOTCOLD at ten times Table 1's update rate,
// checker armed) for two broadcast periods, mobibench's set-up pass. At
// that horizon a run is mostly its set-up, so B/op tracks the per-run
// arenas: the client caches and the database with its update log.
func BenchmarkRunSetup(b *testing.B) {
	cfgs := runSetupConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSetup(b, cfgs, engine.Run)
	}
}

// BenchmarkRunSetupReused is BenchmarkRunSetup with every run on one
// engine.Scratch, as a sweep worker runs its cells: B/op is what a run
// costs once the scratch holds its arenas. It fails when a reused pass
// saves less than nine tenths of the cache and database arenas a fresh
// pass allocates.
func BenchmarkRunSetupReused(b *testing.B) {
	cfgs := runSetupConfigs()
	var s engine.Scratch
	reused := func() { runSetup(b, cfgs, s.Run) }
	reused() // the scratch now holds the largest arenas of the three
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reused()
	}
	b.StopTimer()

	fresh := allocBytes(func() { runSetup(b, cfgs, engine.Run) })
	arenas := allocBytes(func() {
		for _, c := range cfgs {
			new(cache.Arena).NewSet(c.Clients, c.CacheCapacity(), c.DBSize)
			db.New(c.DBSize, c.ConsistencyCheck)
		}
	})
	if got, ceiling := allocBytes(reused), fresh-arenas*9/10; got > ceiling {
		b.Fatalf("a reused set-up pass allocates %d B, above the ceiling of %d B (fresh %d B less 9/10 of its %d B of arenas)",
			got, ceiling, fresh, arenas)
	}
}

// runSetupConfigs is mobibench update-heavy's set-up pass.
func runSetupConfigs() []engine.Config {
	var cfgs []engine.Config
	for j, scheme := range []string{"bs", "afw", "ts-check"} {
		c := engine.Default()
		c.Scheme = scheme
		c.Workload = workload.HotCold(c.DBSize)
		c.MeanUpdate = 10
		c.ProbDisc = 0.3
		c.MeanDisc = 1000
		c.SimTime = 2 * c.Period
		c.Seed = rng.DeriveSeed(1, uint64(j))
		c.ConsistencyCheck = true
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func runSetup(b *testing.B, cfgs []engine.Config, run func(engine.Config) (*engine.Results, error)) {
	for _, c := range cfgs {
		if _, err := run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// allocBytes reports the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.New()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	b.ReportAllocs() // event freelist: steady-state rescheduling is 0 allocs/op
	b.ResetTimer()
	k.Run(sim.EndOfTime)
}

// BenchmarkKernelScheduleCancel churns the schedule/cancel pair that the
// client's per-query deadline timer exercises on every answered query.
// The event freelist must make the steady state allocation-free: each
// Cancel returns the event for the next Schedule to reuse.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Cancel(k.Schedule(1, fn))
	}
	if testing.AllocsPerRun(100, func() {
		k.Cancel(k.Schedule(1, fn))
	}) != 0 {
		b.Fatal("schedule/cancel churn allocates despite the freelist")
	}
}

// BenchmarkChannelSaturated measures the admitted send path: each
// message's delivery sends the next, so the channel never idles. Every
// simulated message takes this path, so the contract requires it to be
// allocation-free once the class's line has grown.
func BenchmarkChannelSaturated(b *testing.B) {
	k := sim.New()
	ch := netsim.NewChannel(k, "down", 1e6)
	remaining := b.N
	var send func()
	send = func() {
		if remaining > 0 {
			remaining--
			ch.Send(netsim.ClassData, 100, nil, sim.Func(send))
		}
	}
	b.ReportAllocs()
	send()
	b.ResetTimer()
	k.Run(sim.EndOfTime)
	b.StopTimer()
	if testing.AllocsPerRun(100, func() {
		remaining = 2
		send()
		k.Run(sim.EndOfTime)
	}) != 0 {
		b.Fatal("admitted send path allocates")
	}
}

// BenchmarkChannelBoundedShed measures the tail-drop fast path: one
// message in service and the queue pinned at its cap, so every Send is
// rejected at admission. The overload contract requires this path to be
// allocation-free and to schedule nothing — shedding under saturation
// must not itself cost memory or kernel work.
func BenchmarkChannelBoundedShed(b *testing.B) {
	k := sim.New()
	ch := netsim.NewChannel(k, "up", 1e6)
	ch.SetQueueCap(4)
	for i := 0; i < 5; i++ { // one in service + four queued = cap reached
		if !ch.Send(netsim.ClassControl, 100, nil, nil) {
			b.Fatal("prefill shed before the cap was reached")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.Send(netsim.ClassControl, 100, nil, nil) {
			b.Fatal("send admitted past a full queue")
		}
	}
	if testing.AllocsPerRun(100, func() {
		ch.Send(netsim.ClassControl, 100, nil, nil)
	}) != 0 {
		b.Fatal("shed path allocates")
	}
}

// benchReceiver is a server.Receiver that discards every delivery.
type benchReceiver struct{}

func (benchReceiver) ID() int32                                        { return 0 }
func (benchReceiver) Connected() bool                                  { return true }
func (benchReceiver) DeliverReport(report.Report, sim.Time)            {}
func (benchReceiver) DeliverValidity(*report.ValidityReport, sim.Time) {}
func (benchReceiver) DeliverItem(int32, int32, float64, sim.Time)      {}
func (benchReceiver) DeliverBusy(int32, sim.Time)                      {}

// BenchmarkServerFetchShed measures a fetch under admission control that
// the saturated bounded downlink sheds: one item in service and the queue
// at its cap, so every requested item is tail-dropped. Most fetches of an
// overloaded run end this way, so the contract requires the path to be
// allocation-free: the server sends before it writes the pending table,
// so a shed fetch never enters it, and the shed returns its pending-fetch
// record to the server's freelist for the next fetch to reuse.
func BenchmarkServerFetchShed(b *testing.B) {
	k := sim.New()
	down := netsim.NewChannel(k, "down", 1e6)
	down.SetQueueCap(4)
	// Only the fetch path runs: the server is never started, so it needs
	// no scheme or update stream.
	srv := server.New(k, db.New(1000, false), down, server.Config{
		ItemBits: 8192, PendingCap: 64, Coalesce: true,
	}, rng.New(1))
	srv.Attach(benchReceiver{})
	for i := 0; i < 5; i++ { // one in service + four queued = cap reached
		if !down.Send(netsim.ClassData, 100, nil, nil) {
			b.Fatal("prefill shed before the cap was reached")
		}
	}
	ids := []int32{7}
	fetch := func() { srv.OnFetch(0, ids, 0) }
	fetch() // fills the freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	if got, want := down.Shed(netsim.ClassData), int64(b.N+1); got != want {
		b.Fatalf("%d of %d fetches shed; the downlink admitted the rest", got, want)
	}
	if testing.AllocsPerRun(100, fetch) != 0 {
		b.Fatal("shed fetch path allocates")
	}
}

// BenchmarkServerFetchAdmit measures a fetch under admission control
// that the idle downlink admits, drained through the kernel: the record
// enters the pending table and goes on the air, and its completion tears
// the entry down and delivers the item. An admitted record is never
// recycled (the delivery adversary may run its completion twice), so the
// contract pins the path at exactly one allocation: the record, which
// holds its first waiter inline and is its own completion. ItemTxStart
// is not traced, so the channel gets no transmission-start observer.
func BenchmarkServerFetchAdmit(b *testing.B) { benchFetchAdmit(b, nil) }

// BenchmarkServerFetchAdmitTraced is BenchmarkServerFetchAdmit with
// ItemTxStart traced, as span assembly traces it: the record is also
// its own transmission-start observer, so the pin stays at one
// allocation. The tracer's ring is preallocated and never grows here.
func BenchmarkServerFetchAdmitTraced(b *testing.B) {
	tr := trace.New(64).Only(trace.ItemTxStart)
	benchFetchAdmit(b, tr)
	if tr.Count(trace.ItemTxStart) == 0 {
		b.Fatal("no transmission start traced")
	}
}

func benchFetchAdmit(b *testing.B, tr *trace.Tracer) {
	k := sim.New()
	down := netsim.NewChannel(k, "down", 1e6)
	srv := server.New(k, db.New(1000, false), down, server.Config{
		ItemBits: 8192, PendingCap: 64, Coalesce: true, Tracer: tr,
	}, rng.New(1))
	srv.Attach(benchReceiver{})
	ids := []int32{7}
	fetch := func() {
		srv.OnFetch(0, ids, k.Now())
		for k.Step() {
		}
	}
	fetch() // warms the kernel's event freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	if got, want := srv.ItemsServed, int64(b.N+1); got != want {
		b.Fatalf("%d of %d fetches served", got, want)
	}
	if got := testing.AllocsPerRun(100, fetch); got != 1 {
		b.Fatalf("admitted fetch path makes %v allocs/op, want 1 (the record)", got)
	}
}

// BenchmarkDeliveryLinkDeliver measures the armed delivery hook: every
// simulated message on an adversarial channel runs through Link.Deliver,
// so the contract requires it to be allocation-free — jitter draws are
// pure arithmetic, and a postponed delivery rides a carrier from the
// link's pool on the kernel's event freelist. The event is typed, as
// the channel's are. Each iteration delivers one message and drains its
// event.
func BenchmarkDeliveryLinkDeliver(b *testing.B) {
	k := sim.New()
	adv := delivery.New(k, delivery.Config{
		Down: delivery.LinkParams{Jitter: 0.5, ReorderProb: 0.1, ReorderDelay: 25, DupProb: 0.05},
	}, rng.New(9), nil)
	l := adv.Down
	var ev benchEvent
	for i := 0; i < 64; i++ { // warm the carrier pool and the event freelist
		l.Deliver(&ev)
	}
	for k.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Deliver(&ev)
		k.Step()
	}
	b.StopTimer()
	if testing.AllocsPerRun(100, func() {
		l.Deliver(&ev)
		k.Step()
	}) != 0 {
		b.Fatal("armed delivery hook allocates")
	}
}

// benchEvent is a typed sim.Event that counts its firings.
type benchEvent int

func (e *benchEvent) Fire() { *e++ }
