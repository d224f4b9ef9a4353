package main

import (
	"fmt"
	"runtime"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/metrics"
	"mobicache/internal/rng"
	"mobicache/internal/workload"
)

// benchWorkload is one input set the benchmark runs. A rep executes every
// config of the workload once; sweep workloads go through exp.Runner and
// its parallel harness, the others call engine.Run in config order.
type benchWorkload struct {
	name string
	// sweeps, when set, are run on a fresh exp.Runner per rep with simTime
	// as the horizon.
	sweeps  []*exp.Sweep
	simTime float64
	// configs returns the configs of one rep, seeded from the root seed.
	configs func(seed uint64) []engine.Config
}

// workloads is the fixed benchmark suite, in output order. Horizons are
// scaled so one rep takes about a second on a 2-core box and each rep
// averages enough independent draws that its cost barely moves with the
// seed. README.md gives the reason for each workload.
var workloads = []*benchWorkload{
	{
		// Figures 7/8/13/14: per-cell set-up, the parallel sweep harness
		// and the per-client process path at 100 clients.
		name:    "paper-sweep",
		sweeps:  []*exp.Sweep{exp.Sweeps["uniform-probdisc"], exp.Sweeps["hotcold-probdisc"]},
		simTime: 3000,
	},
	{
		// The broadcast fan-out: every client applies every report. No
		// client disconnects, so all of them hear every broadcast and AAW
		// sends plain TS windows; updates every 10 s keep the reports large
		// enough that their size, and so the rep's cost, barely moves with
		// the seed. Eight independently seeded cells average what is left.
		name: "agg-fanout",
		configs: func(seed uint64) []engine.Config {
			c := engine.Default()
			c.Scheme = "aaw"
			c.Clients = 4000
			c.DBSize = 1000
			c.Workload = workload.Uniform(c.DBSize)
			c.BufferPct = 0.01
			c.MeanThink = 2000
			c.UplinkBps = 1e6
			c.DownlinkBps = 1e6
			c.MeanUpdate = 10
			c.ProbDisc = 0
			c.SimTime = 600
			aggregate(&c)
			return seeded(seed, c, c, c, c, c, c, c, c)
		},
	},
	{
		// Writes beside reads at 10x Table 1's update rate: bit sequences
		// rebuilt over a heavily updated database and decoded by every
		// client, and ts-check's uplink check path.
		name: "update-heavy",
		configs: func(seed uint64) []engine.Config {
			var out []engine.Config
			for _, scheme := range []string{"bs", "afw", "ts-check"} {
				c := engine.Default()
				c.Scheme = scheme
				c.Workload = workload.HotCold(c.DBSize)
				c.MeanUpdate = 10
				c.ProbDisc = 0.3
				c.MeanDisc = 1000
				c.SimTime = 6000
				out = append(out, c)
			}
			return seeded(seed, out...)
		},
	},
	{
		// All four adversary layers at severity 2 with spans and a metrics
		// registry: the highest event volume, carried by the kernel, the
		// client lifecycle and the adversaries rather than the schemes.
		name: "adversarial",
		configs: func(seed uint64) []engine.Config {
			var out []engine.Config
			for _, scheme := range []string{"ts", "ts-check", "aaw"} {
				c := engine.Default()
				c.Scheme = scheme
				c.MeanDisc = 400
				c.Faults = exp.ChaosFaults(2)
				exp.OverloadGuardrails(&c)
				c.Delivery = delivery.Severity(2)
				c.Churn = churn.Severity(2)
				c.Spans = &engine.SpanOptions{}
				c.Metrics = metrics.New()
				c.SimTime = 20000
				out = append(out, c)
			}
			return seeded(seed, out...)
		},
	},
}

// setupSimTime is the horizon of a set-up pass: two broadcast periods,
// which every workload shares with engine.Default.
var setupSimTime = 2 * engine.Default().Period

// aggregate selects the aggregate client population. It is the only place
// the benchmark departs from engine.Default's representation.
func aggregate(c *engine.Config) { c.Aggregate = true }

// seeded gives config i the seed DeriveSeed(seed, i) and arms the
// stale-read checker on every config.
func seeded(seed uint64, cs ...engine.Config) []engine.Config {
	for i := range cs {
		cs[i].Seed = rng.DeriveSeed(seed, uint64(i))
		cs[i].ConsistencyCheck = true
	}
	return cs
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sweepWorkers is the sweep pool width: two workers, or one on a
// single-CPU host, so the benchmark never oversubscribes a small box.
func sweepWorkers() int { return min(2, runtime.NumCPU()) }

// runRep executes every config of w once. simTime > 0 overrides the
// horizon (set-up passes); tr, when non-nil, times the layers. Results
// come back in a fixed order: sweep grid order, then config order.
func runRep(w *benchWorkload, seed uint64, simTime float64, tr *tracer) ([]*engine.Results, error) {
	if w.sweeps != nil {
		return runSweeps(w, seed, simTime, tr)
	}
	cs := w.configs(seed)
	out := make([]*engine.Results, 0, len(cs))
	for _, c := range cs {
		if simTime > 0 {
			c.SimTime = simTime
		}
		// Each config starts from a collected heap, as a fresh simulator
		// process would, so its peak memory does not depend on when the
		// previous config's garbage happened to be collected.
		runtime.GC()
		c = tr.configure(c)
		r, err := engine.Run(c)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, c.Scheme, err)
		}
		tr.finish(r)
		out = append(out, r)
	}
	return out, nil
}

func runSweeps(w *benchWorkload, seed uint64, simTime float64, tr *tracer) ([]*engine.Results, error) {
	if simTime <= 0 {
		simTime = w.simTime
	}
	runner := exp.NewRunner(exp.Options{
		SimTime: simTime,
		Seeds:   []uint64{rng.DeriveSeed(seed, 0)},
		Workers: sweepWorkers(),
	})
	var out []*engine.Results
	for _, s := range w.sweeps {
		res, err := runner.RunSweep(tr.sweep(armed(s)))
		if err != nil {
			return nil, err
		}
		for _, x := range s.Xs {
			for _, scheme := range res.Schemes {
				out = append(out, res.Cells[x][scheme].Runs...)
			}
		}
	}
	return out, nil
}

// armed returns a copy of s whose configs carry the stale-read checker.
func armed(s *exp.Sweep) *exp.Sweep {
	cp := *s
	cp.Configure = func(x float64) engine.Config {
		c := s.Configure(x)
		c.ConsistencyCheck = true
		return c
	}
	return &cp
}
