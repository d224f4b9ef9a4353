// Package exp declares the paper's evaluation as data: each figure of §5
// is a sweep family (what varies, what stays fixed, which workload) plus a
// metric (queries answered, or uplink validation bits per query). The
// runner executes each family once — figure pairs like 5/6 share their
// simulation runs exactly as the paper derived both plots from the same
// experiments — averages over replication seeds, and renders tables and
// CSV files.
package exp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mobicache/internal/engine"
	"mobicache/internal/metrics"
	"mobicache/internal/parallel"
	"mobicache/internal/stats"
	"mobicache/internal/workload"
)

// Metric selects what a figure plots.
type Metric int

// Metrics of the paper's evaluation.
const (
	// Throughput is "No. of Queries Answered" over the simulation.
	Throughput Metric = iota
	// UplinkPerQuery is "Uplink Communication Cost Per Query (bits/query)".
	UplinkPerQuery
	// AoIP95 is the 95th-percentile answer age of information in seconds
	// (extension figures only; requires the run's span/AoI layer armed,
	// zero otherwise).
	AoIP95
)

// String names the metric as the paper's axis label.
func (m Metric) String() string {
	switch m {
	case Throughput:
		return "No. of Queries Answered"
	case UplinkPerQuery:
		return "Uplink Cost Per Query (bits/query)"
	case AoIP95:
		return "Answer Age of Information p95 (s)"
	default:
		return "metric(?)"
	}
}

func (m Metric) extract(r *engine.Results) float64 {
	switch m {
	case Throughput:
		return float64(r.QueriesAnswered)
	case UplinkPerQuery:
		return r.UplinkBitsPerQuery
	case AoIP95:
		return r.AoIP95
	default:
		panic("exp: unknown metric")
	}
}

// EvaluatedSchemes are the four methods in every figure of §5.
var EvaluatedSchemes = []string{"aaw", "afw", "ts-check", "bs"}

// Sweep is one family of simulation runs: a parameter axis with everything
// else fixed.
type Sweep struct {
	// ID names the family ("uniform-dbsize").
	ID string
	// XLabel is the swept parameter's axis label.
	XLabel string
	// Xs are the sweep points.
	Xs []float64
	// Schemes, when non-empty, overrides the evaluated method set for
	// this family (extension sweeps compare all seven schemes).
	Schemes []string
	// Configure builds the run configuration for one point.
	Configure func(x float64) engine.Config
	// Check, when non-nil, inspects every completed run; an error aborts
	// the sweep (the chaos family asserts zero stale reads this way).
	Check func(r *engine.Results) error
}

// Figure ties a sweep and metric to a numbered figure of the paper.
type Figure struct {
	// ID is the figure tag ("fig5").
	ID string
	// Title echoes the paper's caption.
	Title string
	// Sweep identifies the run family.
	Sweep *Sweep
	// Metric selects the plotted quantity.
	Metric Metric
	// XFilter, if non-nil, restricts the family's sweep points to the
	// range this figure displays (figures 9 and 10 share runs but show
	// different x ranges).
	XFilter func(x float64) bool
}

// sweep constructors ------------------------------------------------------

func dbSizes() []float64 { return []float64{1000, 5000, 10000, 20000, 40000, 60000, 80000} }

func probs() []float64 { return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} }

func discTimes() []float64 {
	return []float64{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000, 3000, 4000, 6000, 8000}
}

func uplinkBps() []float64 {
	return []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
}

func base() engine.Config { return engine.Default() }

// Sweeps are the six run families behind the twelve figures.
var Sweeps = map[string]*Sweep{
	"uniform-dbsize": {
		ID: "uniform-dbsize", XLabel: "Database Size", Xs: dbSizes(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.DBSize = int(x)
			c.Workload = workload.Uniform(c.DBSize)
			c.ProbDisc = 0.1
			c.MeanDisc = 4000
			c.BufferPct = 0.02
			return c
		},
	},
	"uniform-probdisc": {
		ID: "uniform-probdisc", XLabel: "Probability of Disconnection", Xs: probs(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.ProbDisc = x
			c.MeanDisc = 400
			c.BufferPct = 0.02
			return c
		},
	},
	"uniform-disctime": {
		ID: "uniform-disctime", XLabel: "Mean Disconnection Time (s)", Xs: discTimes(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.ProbDisc = 0.1
			c.MeanDisc = x
			c.BufferPct = 0.01
			return c
		},
	},
	"hotcold-dbsize": {
		ID: "hotcold-dbsize", XLabel: "Database Size", Xs: dbSizes(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.DBSize = int(x)
			c.Workload = workload.HotCold(c.DBSize)
			c.ProbDisc = 0.1
			c.MeanDisc = 400
			c.BufferPct = 0.02
			return c
		},
	},
	"hotcold-probdisc": {
		ID: "hotcold-probdisc", XLabel: "Probability of Disconnection", Xs: probs(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.Workload = workload.HotCold(c.DBSize)
			c.ProbDisc = x
			c.MeanDisc = 400
			c.BufferPct = 0.02
			return c
		},
	},
	"uniform-uplink": {
		ID: "uniform-uplink", XLabel: "Uplink Bandwidth (bits/s)", Xs: uplinkBps(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.UplinkBps = x
			c.ProbDisc = 0.1
			c.MeanDisc = 4000
			c.BufferPct = 0.02
			return c
		},
	},
	"hotcold-uplink": {
		ID: "hotcold-uplink", XLabel: "Uplink Bandwidth (bits/s)", Xs: uplinkBps(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.Workload = workload.HotCold(c.DBSize)
			c.UplinkBps = x
			c.ProbDisc = 0.1
			c.MeanDisc = 4000
			c.BufferPct = 0.02
			return c
		},
	},
}

func shortRange(max float64) func(float64) bool {
	return func(x float64) bool { return x <= max }
}

// Figures lists the paper's twelve evaluation figures in order.
var Figures = []Figure{
	{ID: "fig5", Title: "UNIFORM: throughput vs database size", Sweep: Sweeps["uniform-dbsize"], Metric: Throughput},
	{ID: "fig6", Title: "UNIFORM: uplink cost vs database size", Sweep: Sweeps["uniform-dbsize"], Metric: UplinkPerQuery},
	{ID: "fig7", Title: "UNIFORM: throughput vs disconnection probability", Sweep: Sweeps["uniform-probdisc"], Metric: Throughput},
	{ID: "fig8", Title: "UNIFORM: uplink cost vs disconnection probability", Sweep: Sweeps["uniform-probdisc"], Metric: UplinkPerQuery},
	{ID: "fig9", Title: "UNIFORM: throughput vs mean disconnection time", Sweep: Sweeps["uniform-disctime"], Metric: Throughput, XFilter: shortRange(2000)},
	{ID: "fig10", Title: "UNIFORM: uplink cost vs mean disconnection time", Sweep: Sweeps["uniform-disctime"], Metric: UplinkPerQuery},
	{ID: "fig11", Title: "HOTCOLD: throughput vs database size", Sweep: Sweeps["hotcold-dbsize"], Metric: Throughput},
	{ID: "fig12", Title: "HOTCOLD: uplink cost vs database size", Sweep: Sweeps["hotcold-dbsize"], Metric: UplinkPerQuery},
	{ID: "fig13", Title: "HOTCOLD: throughput vs disconnection probability", Sweep: Sweeps["hotcold-probdisc"], Metric: Throughput},
	{ID: "fig14", Title: "HOTCOLD: uplink cost vs disconnection probability", Sweep: Sweeps["hotcold-probdisc"], Metric: UplinkPerQuery},
	{ID: "fig15", Title: "Asymmetric (UNIFORM): throughput vs uplink bandwidth", Sweep: Sweeps["uniform-uplink"], Metric: Throughput},
	{ID: "fig16", Title: "Asymmetric (HOTCOLD): throughput vs uplink bandwidth", Sweep: Sweeps["hotcold-uplink"], Metric: Throughput},
}

// FigureByID finds a figure definition.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown figure %q", id)
}

// Options tune a harness run.
type Options struct {
	// SimTime overrides the configs' horizon when positive (quick runs).
	SimTime float64
	// Seeds are the replication seeds; results are averaged. Default {1}.
	Seeds []uint64
	// Progress, if set, receives one line per completed run. Calls are
	// serialized; with Workers > 1 the line order follows completion
	// order, not grid order.
	Progress func(string)
	// Workers bounds the sweep runner's worker pool. Every (scheme, x,
	// seed) cell is an independent single-threaded simulation with its
	// own kernel, RNG streams and (when enabled) metrics registry, so
	// cells fan out across up to Workers goroutines. 0 means GOMAXPROCS;
	// 1 runs the cells in grid order on the calling goroutine — the
	// legacy serial path. Tables, CSVs and manifest digests are
	// bit-identical at every setting (see DESIGN.md §11).
	Workers int
	// TimelineDir, when non-empty, attaches a metrics registry to every
	// run and writes its per-interval timeline to
	// <dir>/<sweep>-<scheme>-x<x>-s<seed>.csv.
	TimelineDir string
}

func (o Options) seeds() []uint64 {
	if len(o.Seeds) == 0 {
		return []uint64{1}
	}
	return o.Seeds
}

// Cell is one (x, scheme) aggregate of a completed sweep.
type Cell struct {
	X      float64
	Scheme string
	// Throughput and Uplink are seed-averaged metric values.
	Throughput float64
	Uplink     float64
	// ThroughputCI is the 95% half-width over seeds (0 with one seed).
	ThroughputCI float64
	// Runs holds one result per seed.
	Runs []*engine.Results
}

// SweepResult is a fully executed sweep family.
type SweepResult struct {
	Sweep   *Sweep
	Schemes []string
	Cells   map[float64]map[string]*Cell
}

// Runner executes sweeps with memoization so that figure pairs sharing a
// family run it once. The Runner itself is not safe for concurrent use —
// run figures one at a time; the parallelism lives inside RunSweep, which
// fans the sweep's cells out across Options.Workers goroutines.
type Runner struct {
	Opts Options
	done map[string]*SweepResult
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts, done: make(map[string]*SweepResult)}
}

// cellJob is one simulation of a sweep: a single (x, scheme, seed) cell.
// The flattened job list enumerates the grid in the serial runner's
// iteration order, so job index alone determines the cell — workers
// write into their own slot of the results slice and the aggregation
// pass below reads them back in grid order, making every aggregate
// bit-identical to the serial runner no matter how completions interleave.
type cellJob struct {
	x      float64
	scheme string
	seed   uint64
}

// RunSweep executes (or returns the memoized) sweep family. Cells run on
// up to Options.Workers goroutines; each is an isolated simulation (own
// kernel, own seed-determined RNG streams, own metrics registry when
// timelines are enabled), so results do not depend on the worker count.
// The first failing cell — engine error or Check violation — cancels the
// remaining dispatch, and the lowest-indexed failure is reported, exactly
// as the serial loop would have.
func (r *Runner) RunSweep(s *Sweep) (*SweepResult, error) {
	if res, ok := r.done[s.ID]; ok {
		return res, nil
	}
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = EvaluatedSchemes
	}
	seeds := r.Opts.seeds()
	jobs := make([]cellJob, 0, len(s.Xs)*len(schemes)*len(seeds))
	for _, x := range s.Xs {
		for _, scheme := range schemes {
			for _, seed := range seeds {
				jobs = append(jobs, cellJob{x: x, scheme: scheme, seed: seed})
			}
		}
	}

	runs := make([]*engine.Results, len(jobs))
	// One scratch per worker: each cell builds its run in the storage its
	// worker's previous cell left.
	scratches := engine.NewScratches(parallel.ClampWorkers(r.Opts.Workers, len(jobs)))
	var progressMu sync.Mutex
	err := parallel.ForEach(len(jobs), r.Opts.Workers, func(i int) error {
		j := jobs[i]
		c := s.Configure(j.x)
		c.Scheme = j.scheme
		c.Seed = j.seed
		if r.Opts.SimTime > 0 {
			c.SimTime = r.Opts.SimTime
		}
		if r.Opts.TimelineDir != "" {
			c.Metrics = metrics.New()
		}
		run, err := scratches.Run(c)
		if err != nil {
			return fmt.Errorf("sweep %s x=%v scheme=%s: %w", s.ID, j.x, j.scheme, err)
		}
		if c.Metrics != nil {
			if err := writeTimeline(r.Opts.TimelineDir, s.ID, j.scheme, j.x, j.seed, c.Metrics); err != nil {
				return err
			}
		}
		if s.Check != nil {
			if err := s.Check(run); err != nil {
				return fmt.Errorf("sweep %s x=%v scheme=%s seed=%d: %w", s.ID, j.x, j.scheme, j.seed, err)
			}
		}
		runs[i] = run
		if r.Opts.Progress != nil {
			progressMu.Lock()
			r.Opts.Progress(fmt.Sprintf("%s %s=%v %s seed=%d: queries=%d uplink=%.1f b/q",
				s.ID, s.XLabel, j.x, j.scheme, j.seed, run.QueriesAnswered, run.UplinkBitsPerQuery))
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate serially in grid order: seed tallies observe in the same
	// sequence as the serial runner, so means and CIs match bit for bit.
	res := &SweepResult{
		Sweep:   s,
		Schemes: schemes,
		Cells:   make(map[float64]map[string]*Cell),
	}
	idx := 0
	for _, x := range s.Xs {
		res.Cells[x] = make(map[string]*Cell)
		for _, scheme := range schemes {
			cell := &Cell{X: x, Scheme: scheme}
			var thr, upl stats.Tally
			for range seeds {
				run := runs[idx]
				idx++
				cell.Runs = append(cell.Runs, run)
				thr.Observe(Throughput.extract(run))
				upl.Observe(UplinkPerQuery.extract(run))
			}
			cell.Throughput = thr.Mean()
			cell.Uplink = upl.Mean()
			if thr.N() > 1 {
				cell.ThroughputCI = 1.96 * thr.Std() / math.Sqrt(float64(thr.N()))
			}
			res.Cells[x][scheme] = cell
		}
	}
	r.done[s.ID] = res
	return res, nil
}

// writeTimeline flushes one run's sampled registry as a CSV named after
// the sweep coordinates.
func writeTimeline(dir, sweepID, scheme string, x float64, seed uint64, reg *metrics.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-x%g-s%d.csv", sweepID, scheme, x, seed)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := reg.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FigureTable is a rendered figure: one row per sweep point, one column
// per scheme.
type FigureTable struct {
	Figure  Figure
	Schemes []string
	Xs      []float64
	Values  map[float64]map[string]float64
}

// RunFigure executes (via the shared sweep) and extracts one figure.
func (r *Runner) RunFigure(f Figure) (*FigureTable, error) {
	sw, err := r.RunSweep(f.Sweep)
	if err != nil {
		return nil, err
	}
	t := &FigureTable{
		Figure:  f,
		Schemes: sw.Schemes,
		Values:  make(map[float64]map[string]float64),
	}
	for _, x := range f.Sweep.Xs {
		if f.XFilter != nil && !f.XFilter(x) {
			continue
		}
		t.Xs = append(t.Xs, x)
		row := make(map[string]float64)
		for _, scheme := range sw.Schemes {
			cell := sw.Cells[x][scheme]
			switch f.Metric {
			case Throughput:
				row[scheme] = cell.Throughput
			case UplinkPerQuery:
				row[scheme] = cell.Uplink
			default:
				// Metrics beyond the two precomputed paper axes are
				// seed-averaged on demand; observation follows Runs
				// order (grid order), so the mean is deterministic.
				var tl stats.Tally
				for _, run := range cell.Runs {
					tl.Observe(f.Metric.extract(run))
				}
				row[scheme] = tl.Mean()
			}
		}
		t.Values[x] = row
	}
	sort.Float64s(t.Xs)
	return t, nil
}

// Render formats the table in the style of the paper's plots: x column
// followed by one column per method.
func (t *FigureTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.Figure.ID[:1])+t.Figure.ID[1:], t.Figure.Title)
	fmt.Fprintf(&b, "metric: %s\n", t.Figure.Metric)
	fmt.Fprintf(&b, "%-14s", t.Figure.Sweep.XLabel)
	for _, s := range t.Schemes {
		fmt.Fprintf(&b, "%12s", s)
	}
	b.WriteByte('\n')
	for _, x := range t.Xs {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range t.Schemes {
			fmt.Fprintf(&b, "%12.1f", t.Values[x][s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *FigureTable) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range t.Schemes {
		b.WriteString(",")
		b.WriteString(s)
	}
	b.WriteByte('\n')
	for _, x := range t.Xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range t.Schemes {
			fmt.Fprintf(&b, ",%.3f", t.Values[x][s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
