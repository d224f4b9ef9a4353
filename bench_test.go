// Benchmarks regenerating the paper's evaluation, one per figure, plus
// micro-benchmarks of the substrates. Each figure benchmark runs the
// figure's sweep family at a representative point for all four evaluated
// schemes and reports the headline metric per scheme as a custom unit, so
// `go test -bench=Fig` prints the same quantities the paper plots (at a
// reduced horizon; use cmd/experiments for the full-horizon sweeps).
package mobicache

import (
	"fmt"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/db"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
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

func BenchmarkBitseqBuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 80000} {
		d := makeUpdatedDB(n, n/4)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bitseq.Build(n, d)
			}
		})
	}
}

func BenchmarkBitseqLocate(b *testing.B) {
	const n = 10000
	d := makeUpdatedDB(n, n/4)
	st := bitseq.Build(n, d)
	var ids []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ids = st.Locate(float64(i%1000), ids[:0])
	}
}

func BenchmarkBitseqEncode(b *testing.B) {
	const n = 10000
	st := bitseq.Build(n, makeUpdatedDB(n, n/4))
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

func BenchmarkCacheLookupPut(b *testing.B) {
	c := cache.New(200, 10000)
	src := rng.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(src.Intn(10000))
		if _, ok := c.Lookup(id); !ok {
			c.Put(id, float64(i), 1)
		}
	}
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
			ch.Send(netsim.ClassData, 100, send)
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
		if !ch.Send(netsim.ClassControl, 100, nil) {
			b.Fatal("prefill shed before the cap was reached")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.Send(netsim.ClassControl, 100, nil) {
			b.Fatal("send admitted past a full queue")
		}
	}
	if testing.AllocsPerRun(100, func() {
		ch.Send(netsim.ClassControl, 100, nil)
	}) != 0 {
		b.Fatal("shed path allocates")
	}
}

// BenchmarkDeliveryLinkDeliver measures the armed delivery hook: every
// simulated message on an adversarial channel runs through Link.Deliver,
// so the contract requires it to be allocation-free — jitter draws are
// pure arithmetic and the postponed callback rides the kernel's event
// freelist. Each iteration delivers one message and drains its event.
func BenchmarkDeliveryLinkDeliver(b *testing.B) {
	k := sim.New()
	adv := delivery.New(k, delivery.Config{
		Down: delivery.LinkParams{Jitter: 0.5, ReorderProb: 0.1, ReorderDelay: 25, DupProb: 0.05},
	}, rng.New(9), nil)
	l := adv.Down
	cb := func() {}
	for i := 0; i < 64; i++ { // warm the event freelist
		l.Deliver(cb)
	}
	for k.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Deliver(cb)
		k.Step()
	}
	b.StopTimer()
	if testing.AllocsPerRun(100, func() {
		l.Deliver(cb)
		k.Step()
	}) != 0 {
		b.Fatal("armed delivery hook allocates")
	}
}
