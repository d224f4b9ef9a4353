// Command mobibench is mobicache's end-to-end and per-layer benchmark. It
// runs four fixed workloads through engine.Run and exp.Runner from the
// outside, audits every run, and prints every metric by name with its
// unit. README.md in this directory describes the workloads and metrics;
// BENCHMARK.json at the repository root fixes their bounds.
//
//	mobibench -seed 1                          # all workloads, one child process each
//	mobibench -seed 1 -trace 1                 # plus a traced per-layer pass
//	mobibench -workload agg-fanout -seed 3 -seconds 10 -trace 0
//	mobibench -compare base.json change.json   # apply BENCHMARK.json's bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The command layer reads
// the wall clock, which DESIGN.md §7 allows outside the simulator packages.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobicache/internal/engine"
)

const (
	// minReps is the fewest timed reps a run reports, however long they take.
	minReps = 5
	// setupBatches batches of set-up passes are timed; each batch repeats
	// passes until it has taken setupBatchMin, and the median per-pass time
	// is reported.
	setupBatches  = 5
	setupBatchMin = 500 * time.Millisecond
)

// endToEnd and perLayer name the metrics of the final JSON line with
// -trace 0 and -trace 1, in BENCHMARK.json's order.
var (
	endToEnd = []string{"setup_s", "run_s", "peak_rss_mb"}
	perLayer = []string{
		"sim.events", "sim.events_per_s",
		"server.build_report.calls", "server.build_report.s",
		"core.handle_report.calls", "core.handle_report.s", "core.handle_report.ns_per_call",
		"workload.sample.s", "residual.s", "residual.share",
		"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_s",
		"trace.overhead_share",
	}
)

// simOutputs are the deterministic simulated outputs of the end-to-end
// pass: a change that only speeds up the simulator must leave them
// bit-identical. They vary with the seed, so they carry no bound in
// BENCHMARK.json; -compare requires them to be equal.
var simOutputs = []string{"sim_queries", "sim_uplink_bpq", "sim_query_fail_share"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "root seed; every config seed is rng.DeriveSeed(seed, i)")
	seconds := fs.Float64("seconds", 10, "host seconds of timed reps per workload")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass (with -workload: instead of the end-to-end pass)")
	out := fs.String("out", "mobibench.json", "result file written when running every workload")
	compare := fs.Bool("compare", false, "compare two result files: mobibench -compare base.json change.json")
	spec := fs.String("spec", "../../BENCHMARK.json", "BENCHMARK.json whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mobibench: -compare needs two result files")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "mobibench: unexpected arguments %q\n", fs.Args())
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "mobibench: -trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "mobibench: -seconds must be positive")
		return 2
	case *name != "":
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "mobibench:", err)
			return 2
		}
		p := &pass{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
			setupMin: setupBatchMin, reference: referenceSeconds}
		return runPass(p, *traced == 1, stdout, stderr)
	default:
		return runAll(*seed, *seconds, *traced == 1, *out, stdout, stderr)
	}
}

// metric is one measured value; samples holds the per-rep or per-batch
// values behind a median.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
	// Note is printed beside the value (spread, base of a ratio).
	Note string `json:"-"`
}

// record is the outcome of one workload pass.
type record struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Runs     int      `json:"runs"`
	Failed   int      `json:"failed_runs"`
	Metrics  []metric `json:"metrics"`
}

func (r *record) add(name, unit string, value float64, note string, samples ...float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Note: note, Samples: samples})
}

func (r *record) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runPass measures one workload in this process, prints its table, a
// "record" line for a parent process, and the final JSON line.
func runPass(p *pass, traced bool, stdout, stderr io.Writer) int {
	var rec *record
	if traced {
		rec = p.traced()
	} else {
		rec = p.endToEnd()
	}
	if p.err != nil {
		fmt.Fprintf(stderr, "mobibench: %s: %d failed run(s); first: %v\n", p.w.name, rec.Failed, p.err)
	}
	printRecord(stdout, rec)
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "mobibench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", b)
	names := endToEnd
	if traced {
		names = perLayer
	}
	line, err := resultLine(rec, names)
	if err != nil {
		fmt.Fprintln(stderr, "mobibench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON line with exactly the named metrics.
func resultLine(rec *record, names []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := rec.get(n)
		if !ok {
			return "", fmt.Errorf("%s: metric %s not measured", rec.Workload, n)
		}
		ms[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0 && rec.Runs > 0, rec.Runs, rec.Failed, ms})
	return string(b), err
}

func printRecord(w io.Writer, rec *record) {
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%-12s %-28s %14.6g %-10s %s\n", rec.Workload, m.Name, m.Value, m.Unit, m.Note)
	}
}

// pass holds the state of one workload measurement.
type pass struct {
	w    *benchWorkload
	seed uint64
	// budget is the host time of timed reps; setupMin the least host time
	// of one set-up batch.
	budget, setupMin time.Duration
	// reference times the reference kernel (referenceSeconds; tests stub it).
	reference func() float64

	warm   []*engine.Results // the warm-up rep, the baseline of every later rep
	want   []string          // the warm-up rep's digests
	runs   int
	failed int
	err    error // first failure
}

// rep runs one rep and checks it against the warm-up rep; a set-up rep runs
// two broadcast periods and is only audited. A rep that errors counts as
// one failed run and returns nil.
func (p *pass) rep(setup bool, tr *tracer) []*engine.Results {
	simTime, want := 0.0, &p.want
	if setup {
		simTime, want = setupSimTime, new([]string)
	}
	var runs []*engine.Results
	err := tr.withTimedSchemes(func() (err error) {
		runs, err = runRep(p.w, p.seed, simTime, tr)
		return err
	})
	if err != nil {
		p.runs++
		p.fail(1, err)
		return nil
	}
	p.runs += len(runs)
	p.fail(checkRep(runs, want))
	return runs
}

func (p *pass) fail(n int, err error) {
	p.failed += n
	if p.err == nil && err != nil {
		p.err = err
	}
}

// warmUp runs the untimed rep that later reps must reproduce.
func (p *pass) warmUp() {
	p.warm = p.rep(false, nil)
}

// repStats collects the host time and Go runtime activity of untraced
// reps; norm is each rep's host time scaled by the reference kernel's time
// just before it (see refNominal).
type repStats struct {
	wall, ref, norm, allocMB, gcCycles, gcPause []float64
}

// untracedRep times the reference kernel and then one rep, after a forced
// GC so that earlier garbage is not collected on the rep's clock.
func (p *pass) untracedRep(st *repStats) {
	ref := p.reference()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	p.rep(false, nil)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	st.wall = append(st.wall, wall)
	st.ref = append(st.ref, ref)
	st.norm = append(st.norm, wall*refNominal/ref)
	st.allocMB = append(st.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	st.gcCycles = append(st.gcCycles, float64(after.NumGC-before.NumGC))
	st.gcPause = append(st.gcPause, float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
}

// endToEnd is the untraced pass: warm-up, set-up batches, timed reps.
func (p *pass) endToEnd() *record {
	rec := &record{Workload: p.w.name}
	p.warmUp()
	// The peak of one rep, read before the reference kernel first runs so
	// that its memory cannot count.
	rss, err := peakRSSMB()
	if err != nil {
		p.fail(1, err)
	}

	var setupWall, setup []float64
	for b := 0; b < setupBatches; b++ {
		ref := p.reference()
		start := time.Now()
		passes := 0
		for passes == 0 || time.Since(start) < p.setupMin {
			p.rep(true, nil)
			passes++
		}
		perPass := time.Since(start).Seconds() / float64(passes)
		setupWall = append(setupWall, perPass)
		setup = append(setup, perPass*refNominal/ref)
	}

	var st repStats
	start := time.Now()
	for len(st.wall) < minReps || time.Since(start) < p.budget {
		p.untracedRep(&st)
	}

	rec.add("setup_s", "s", median(setup), "scaled to the reference; "+spread(setup), setup...)
	rec.add("run_s", "s", median(st.norm), "scaled to the reference; "+spread(st.norm), st.norm...)
	rec.add("peak_rss_mb", "MB", rss, "VmHWM after the warm-up rep")
	rec.add("setup_wall_s", "s", median(setupWall), "unscaled")
	rec.add("run_wall_s", "s", median(st.wall), "unscaled; "+spread(st.wall))
	rec.add("ref_s", "s", median(st.ref), fmt.Sprintf("reference kernel, defined as %g s", refNominal))

	p.addSim(rec)
	rec.Runs, rec.Failed = p.runs, p.failed
	rec.add("failed_runs", "runs", float64(p.failed), fmt.Sprintf("of %d runs", p.runs))
	return rec
}

// addSim adds the deterministic simulated outputs of the warm-up rep.
func (p *pass) addSim(rec *record) {
	var answered, issued, failedQ int64
	var upBits float64
	for _, r := range p.warm {
		answered += r.QueriesAnswered
		issued += r.QueriesIssued
		failedQ += r.QueriesTimedOut + r.QueriesShed
		upBits += r.UplinkValidationBits
	}
	rec.add("sim_queries", "queries", float64(answered), fmt.Sprintf("over %d configs", len(p.warm)))
	rec.add("sim_uplink_bpq", "bits/query", ratio(upBits, float64(answered)), "")
	rec.add("sim_query_fail_share", "ratio", ratio(float64(failedQ), float64(issued)),
		fmt.Sprintf("(timed out + shed) of %d issued", issued))
}

// traced is the per-layer pass: warm-up, then untraced and traced reps
// alternately until the budget is spent. Layer times come from the traced
// rep with the median wall time, so they sum with residual.s exactly.
func (p *pass) traced() *record {
	rec := &record{Workload: p.w.name, Traced: true}
	p.warmUp()

	var st repStats
	type tracedRep struct {
		tr   *tracer
		wall float64
	}
	var reps []tracedRep
	start := time.Now()
	for len(reps) < 1 || time.Since(start) < p.budget {
		p.untracedRep(&st)
		tr := &tracer{}
		runtime.GC()
		t0 := time.Now()
		p.rep(false, tr)
		reps = append(reps, tracedRep{tr, time.Since(t0).Seconds()})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].wall < reps[j].wall })
	mid := reps[(len(reps)-1)/2]
	tr := mid.tr
	runS := median(st.wall)

	var events uint64
	var peakQueue int
	var reportBits, reportsSent, bsSent float64
	var hits, lookups, drops int64
	var downUtil, upUtil float64
	for _, r := range p.warm {
		events += r.Events
		peakQueue = max(peakQueue, r.PeakEventQueue)
		kinds := make([]string, 0, len(r.ReportsSent))
		for kind := range r.ReportsSent {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds) // a fixed float summation order
		for _, kind := range kinds {
			reportsSent += float64(r.ReportsSent[kind])
			reportBits += r.ReportBits[kind]
		}
		bsSent += float64(r.ReportsSent["BS"])
		hits += r.CacheHits
		lookups += r.CacheHits + r.CacheMisses
		drops += r.Drops
		downUtil += r.DownUtilization / float64(len(p.warm))
		upUtil += r.UpUtilization / float64(len(p.warm))
	}
	rec.add("sim.events", "events", float64(events), "")
	rec.add("sim.events_per_s", "1/s", ratio(float64(events), runS), fmt.Sprintf("untraced run_s %.4g s", runS))
	rec.add("sim.peak_queue", "events", float64(peakQueue), "max over configs")

	cells := tr.cells
	busy := sum(cells)
	timed := 0.0
	addLayer := func(prefix string, l *layer) {
		s := l.seconds()
		timed += s
		rec.add(prefix+".calls", "calls", float64(l.calls.Load()), "")
		rec.add(prefix+".s", "s", s, fmt.Sprintf("%.1f%% of busy", 100*ratio(s, busy)))
	}
	addLayer("server.build_report", &tr.buildReport)
	addLayer("server.handle_control", &tr.handleControl)
	rec.add("report.bits_per_broadcast", "bits", ratio(reportBits, reportsSent), fmt.Sprintf("over %.0f broadcasts", reportsSent))
	rec.add("report.bs_share", "ratio", ratio(bsSent, reportsSent), "")
	addLayer("core.handle_report", &tr.handleReport)
	rec.add("core.handle_report.ns_per_call", "ns", 1e9*ratio(tr.handleReport.seconds(), float64(tr.handleReport.calls.Load())), "")
	addLayer("core.handle_validity", &tr.handleValidity)
	rec.add("cache.hit_ratio", "ratio", ratio(float64(hits), float64(lookups)), fmt.Sprintf("of %d lookups", lookups))
	rec.add("cache.drops", "drops", float64(drops), "")
	addLayer("workload.sample", &tr.sample)
	rec.add("netsim.down_util", "ratio", downUtil, "mean over configs")
	rec.add("netsim.up_util", "ratio", upUtil, "mean over configs")
	rec.add("residual.s", "s", busy-timed, "kernel, client lifecycle, netsim, adversaries, span, metrics")
	rec.add("residual.share", "ratio", ratio(busy-timed, busy), "")
	if p.w.sweeps != nil {
		workers := float64(sweepWorkers())
		rec.add("exp.cells", "cells", float64(len(cells)), "")
		rec.add("exp.cell_s_p50", "s", median(cells), "")
		rec.add("exp.cell_s_max", "s", maxOf(cells), "")
		rec.add("parallel.busy_share", "ratio", ratio(busy, workers*mid.wall), fmt.Sprintf("%.0f workers", workers))
	}
	p.addAdversary(rec)
	rec.add("runtime.alloc_mb", "MB", median(st.allocMB), "per untraced rep")
	rec.add("runtime.gc_cycles", "cycles", median(st.gcCycles), "per untraced rep")
	rec.add("runtime.gc_pause_s", "s", median(st.gcPause), "per untraced rep")
	rec.add("trace.wall_s", "s", mid.wall, fmt.Sprintf("median of %d traced reps", len(reps)))
	rec.add("trace.busy_s", "s", busy, "sum of per-run host time; = timed layers + residual.s")
	rec.add("trace.overhead_share", "ratio", mid.wall/runS-1, "traced wall / untraced run_s - 1")
	rec.Runs, rec.Failed = p.runs, p.failed
	rec.add("failed_runs", "runs", float64(p.failed), fmt.Sprintf("of %d runs", p.runs))
	return rec
}

// addAdversary adds the adversary layers' counts of the warm-up rep;
// they are 0 on workloads that run without adversaries.
func (p *pass) addAdversary(rec *record) {
	var retries, timedOut, gaps, storms, cold, terminal int64
	for _, r := range p.warm {
		retries += r.Retries
		timedOut += r.QueriesTimedOut
		gaps += r.IRGaps
		storms += r.Storms
		cold += r.RestartsCold
		if r.Spans != nil {
			terminal += r.Spans.Terminal()
		}
	}
	rec.add("faults.retries", "retries", float64(retries), "")
	rec.add("overload.timed_out", "queries", float64(timedOut), "")
	rec.add("delivery.ir_gaps", "gaps", float64(gaps), "")
	rec.add("churn.storms", "storms", float64(storms), "")
	rec.add("churn.restarts_cold", "restarts", float64(cold), "")
	rec.add("span.terminal", "spans", float64(terminal), "")
}

// peakRSSMB reads the process's peak resident set, VmHWM, from
// /proc/self/status. Unlike ru_maxrss it belongs to this program's own
// address space, so it does not inherit the peak of the shell that
// exec'd it.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runAll measures every workload in its own child process, so peak RSS is
// per workload, prints the tables and writes the combined result file.
func runAll(seed uint64, seconds float64, traced bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mobibench:", err)
		return 1
	}
	file := resultFile{Host: hostInfo(), Seed: seed, Seconds: seconds}
	status := 0
	for _, w := range workloads {
		passes := []string{"0"}
		if traced {
			passes = append(passes, "1")
		}
		for _, t := range passes {
			rec, err := runChild(exe, stdout, stderr, "-workload", w.name,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
			if err != nil {
				fmt.Fprintf(stderr, "mobibench: %s: %v\n", w.name, err)
				status = 1
			}
			if rec != nil {
				file.Records = append(file.Records, *rec)
			}
		}
	}
	if err := writeJSON(out, &file); err != nil {
		fmt.Fprintln(stderr, "mobibench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return status
}

// runChild runs one workload pass in a child process, forwards its table
// and returns its record line.
func runChild(exe string, stdout, stderr io.Writer, args ...string) (*record, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var rec *record
	var parseErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "record "):
			rec = new(record)
			parseErr = json.Unmarshal([]byte(line[len("record "):]), rec)
		case strings.HasPrefix(line, "{"):
			// The final result line; the record line carries the same values.
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, pipe) // drain so the child can exit
	}
	waitErr := cmd.Wait()
	return rec, errors.Join(scanErr, parseErr, waitErr)
}

// resultFile is the JSON result file of a full run.
type resultFile struct {
	Host    host     `json:"host"`
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Records []record `json:"records"`
}

type host struct {
	NumCPU    int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), CPU: "unknown", GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread prints the min, max and count beside a median: too few samples
// for a tail percentile.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return fmt.Sprintf("min %.4g max %.4g n=%d", lo, hi, len(xs))
}
