// Command mobisim runs one mobile cache-invalidation simulation and
// prints a result summary. Every Table 1 parameter of the paper is a
// flag; the defaults reproduce the paper's base configuration.
//
// Examples:
//
//	mobisim -scheme aaw
//	mobisim -scheme bs -db 80000 -simtime 100000
//	mobisim -scheme ts-check -workload hotcold -uplink 200 -check
//	mobisim -scheme aaw -timeline tl.csv -trace-jsonl ev.jsonl -manifest run.json
//	mobisim -from-manifest run.json
//	mobisim -scheme aaw -seeds 8 -workers 4
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/metrics"
	"mobicache/internal/overload"
	"mobicache/internal/parallel"
	"mobicache/internal/rng"
	"mobicache/internal/span"
	"mobicache/internal/stats"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobisim:", err)
		os.Exit(1)
	}
}

// traceRingDefault is the retained-ring capacity hint used when event
// streaming is requested without an explicit -trace N.
const traceRingDefault = 4096

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("mobisim", flag.ContinueOnError)
	def := engine.Default()

	scheme := fs.String("scheme", def.Scheme,
		"invalidation scheme: "+strings.Join(core.Names(), ", "))
	wl := fs.String("workload", "uniform", "workload: uniform, hotcold, or zipf:<theta>")
	clients := fs.Int("clients", def.Clients, "number of mobile clients")
	dbSize := fs.Int("db", def.DBSize, "database size in items")
	itemBits := fs.Float64("itembits", def.ItemBits, "data item size in bits")
	bufferPct := fs.Float64("buffer", def.BufferPct, "client buffer as a fraction of the database")
	period := fs.Float64("period", def.Period, "broadcast period L in seconds")
	window := fs.Int("window", def.WindowIntervals, "invalidation window w in intervals")
	downlink := fs.Float64("downlink", def.DownlinkBps, "downlink bandwidth in bits/s")
	uplink := fs.Float64("uplink", def.UplinkBps, "uplink bandwidth in bits/s")
	think := fs.Float64("think", def.MeanThink, "mean think time in seconds")
	update := fs.Float64("update", def.MeanUpdate, "mean update interarrival in seconds")
	disc := fs.Float64("disc", def.MeanDisc, "mean disconnection time in seconds")
	probDisc := fs.Float64("probdisc", def.ProbDisc, "disconnection probability")
	perInterval := fs.Bool("disc-per-interval", false, "apply -probdisc at every broadcast boundary instead of per query gap")
	simTime := fs.Float64("simtime", def.SimTime, "simulated horizon in seconds")
	seed := fs.Uint64("seed", def.Seed, "random seed")
	check := fs.Bool("check", false, "enable the stale-read consistency checker")
	traceN := fs.Int("trace", 0, "print the last N protocol events of the run")
	traceJSONL := fs.String("trace-jsonl", "", "stream every protocol event to this file as JSON lines (lossless)")
	timeline := fs.String("timeline", "", "write the per-interval metrics timeline to this CSV file")
	manifestOut := fs.String("manifest", "", "write the run manifest (config, seed, result digest, profile) to this JSON file")
	fromManifest := fs.String("from-manifest", "", "replay the run recorded in this manifest file and verify its result digest (overrides config flags)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	upQueueCap := fs.Int("up-queue-cap", 0, "bound the uplink queue to N waiting messages (0 = unbounded)")
	downQueueCap := fs.Int("down-queue-cap", 0, "bound the downlink queue to N waiting messages (0 = unbounded)")
	queryDeadline := fs.Float64("query-deadline", 0, "abandon queries unanswered after this many simulated seconds (0 = wait forever)")
	pendingCap := fs.Int("server-pending-cap", 0, "bound the server's pending-fetch table; excess fetches get a busy reply (0 = unbounded)")
	coalesce := fs.Bool("coalesce", false, "merge concurrent fetches of one item into a single downlink transmission")
	deliverySev := fs.Float64("delivery", 0, "adversarial delivery severity 0..4: jitter, reordering, duplication, partitions, clock skew (requires a recovery path, e.g. -query-deadline)")
	churnSev := fs.Float64("churn", 0, "population churn severity 0..4: mass-disconnect storms, client crash/restart with persisted-snapshot faults, paced resync (requires a recovery path, e.g. -query-deadline)")
	chaos := fs.Float64("chaos", 0, "compound fault intensity 0..4: bursty loss/corruption on both channels plus server crashes, with the validated retry policy armed")
	spansOut := fs.String("spans", "", "assemble per-query causal spans and write them to this file as Chrome trace-event JSON (Perfetto-loadable)")
	validateSpans := fs.String("validate-spans", "", "validate the trace-event schema of an existing span file and exit (with -json, print {\"trace_events\": N})")
	seeds := fs.Int("seeds", 1, "replication count; N > 1 runs N seeds derived from -seed and averages them")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers for -seeds > 1 (results are identical at any setting)")
	jsonOut := fs.Bool("json", false, "emit the run as one JSON record: its manifest keys plus \"results\" (replays with -from-manifest)")
	verbose := fs.Bool("v", false, "print the full metric breakdown")

	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validateSpans != "" {
		f, err := os.Open(*validateSpans)
		if err != nil {
			return err
		}
		n, err := span.ValidateTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(out, struct {
				TraceEvents int `json:"trace_events"`
			}{n})
		}
		fmt.Fprintf(out, "spans file OK: %d trace events\n", n)
		return nil
	}

	var c engine.Config
	var replay *engine.Manifest
	if *fromManifest != "" {
		f, err := os.Open(*fromManifest)
		if err != nil {
			return err
		}
		replay, err = engine.ReadManifest(f)
		f.Close()
		if err != nil {
			return err
		}
		if c, err = replay.EngineConfig(); err != nil {
			return err
		}
	} else {
		c = def
		c.Scheme = *scheme
		c.Clients = *clients
		c.DBSize = *dbSize
		c.ItemBits = *itemBits
		c.BufferPct = *bufferPct
		c.Period = *period
		c.WindowIntervals = *window
		c.DownlinkBps = *downlink
		c.UplinkBps = *uplink
		c.MeanThink = *think
		c.MeanUpdate = *update
		c.MeanDisc = *disc
		c.ProbDisc = *probDisc
		c.DiscPerInterval = *perInterval
		c.SimTime = *simTime
		c.Seed = *seed
		c.ConsistencyCheck = *check
		c.Overload = overload.Config{
			UpQueueCap:       *upQueueCap,
			DownQueueCap:     *downQueueCap,
			QueryDeadline:    *queryDeadline,
			ServerPendingCap: *pendingCap,
			Coalesce:         *coalesce,
		}
		c.Delivery = delivery.Severity(*deliverySev)
		c.Churn = churn.Severity(*churnSev)
		if *chaos > 0 {
			c.Faults = exp.ChaosFaults(*chaos)
		}
		var err error
		if c.Workload, err = workload.Parse(*wl, c.DBSize); err != nil {
			return err
		}
	}
	// -spans arms the assembly layer in Keep mode, so the file has every
	// span and phase segment. On a replay it may only upgrade a recorded
	// layer to Keep: the digest covers the span fields.
	if *spansOut != "" {
		if c.Spans == nil {
			if replay != nil {
				return fmt.Errorf("-spans: %s was recorded without spans", *fromManifest)
			}
			c.Spans = &engine.SpanOptions{}
		}
		c.Spans.Keep = true
	}

	if *jsonOut && *traceN > 0 {
		return fmt.Errorf("-trace prints text after the JSON; use -trace-jsonl with -json")
	}

	if *seeds > 1 {
		// Replication mode is a batch of independent runs; the per-run
		// artifact flags have no single run to attach to.
		incompatible := []struct {
			name string
			set  bool
		}{
			{"from-manifest", *fromManifest != ""},
			{"manifest", *manifestOut != ""},
			{"timeline", *timeline != ""},
			{"trace", *traceN > 0},
			{"trace-jsonl", *traceJSONL != ""},
			{"cpuprofile", *cpuProfile != ""},
			{"memprofile", *memProfile != ""},
			{"spans", *spansOut != ""},
		}
		for _, f := range incompatible {
			if f.set {
				return fmt.Errorf("-%s cannot be combined with -seeds > 1", f.name)
			}
		}
		return runMulti(out, c, *seeds, *workers, *seed, *jsonOut)
	}

	// -trace sizes the retained ring (a capacity hint: memory scales with
	// events actually recorded, not the requested N); -trace-jsonl
	// additionally streams every event losslessly through the same sink
	// path the final dump uses.
	var tr *trace.Tracer
	if *traceN > 0 {
		tr = trace.New(*traceN)
	} else if *traceJSONL != "" {
		tr = trace.New(traceRingDefault)
	}
	var jsonlFile *os.File
	var jsonlBuf *bufio.Writer
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			return err
		}
		jsonlFile = f
		jsonlBuf = bufio.NewWriter(f)
		tr.SetSink(trace.NewJSONLSink(jsonlBuf))
	}
	c.Trace = tr

	var reg *metrics.Registry
	if *timeline != "" {
		reg = metrics.New()
		c.Metrics = reg
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	r, runErr := engine.Run(c)
	wall := time.Since(start)
	if r == nil {
		return runErr
	}

	if jsonlBuf != nil {
		if err := tr.SinkErr(); err != nil {
			return fmt.Errorf("trace stream: %w", err)
		}
		if err := jsonlBuf.Flush(); err != nil {
			return err
		}
		if err := jsonlFile.Close(); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if reg != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := reg.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		if err := r.Spans.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *manifestOut != "" {
		m := engine.NewManifest(r)
		m.Stamp(wall.Seconds())
		f, err := os.Create(*manifestOut)
		if err != nil {
			return err
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	verdict := out
	if *jsonOut {
		if err := writeJSON(out, newJSONRun(r)); err != nil {
			return err
		}
		verdict = os.Stderr // stdout holds one JSON value
	} else {
		printResults(out, r, *verbose)
	}
	if replay != nil {
		if err := replay.VerifyReplay(r); err != nil {
			return err
		}
		fmt.Fprintf(verdict, "replay verified: digest matches %s\n", *fromManifest)
	}
	if tr != nil && *traceN > 0 {
		fmt.Fprintf(out, "--- last %d of %d protocol events ---\n", len(tr.Events()), tr.Total())
		if err := tr.Flush(trace.NewTextSink(out)); err != nil {
			return err
		}
	}
	return runErr // a failed audit, reported after the results it judged
}

// jsonRun is the -json record of one run: the run's manifest, embedded
// so its keys stay top-level, and its Results as they marshal, under Go
// field names. The record is itself a manifest, so -from-manifest replays
// it. It is left unstamped, so the output is deterministic.
type jsonRun struct {
	*engine.Manifest
	Results *engine.Results `json:"results"`
}

func newJSONRun(r *engine.Results) jsonRun { return jsonRun{engine.NewManifest(r), r} }

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runMulti runs count replications of c, seeding replication i with
// rng.DeriveSeed(root, i) so each seed depends only on its index, fans
// them out across workers, and prints per-seed summaries in seed order
// followed by the cross-seed averages. Output is bit-identical at any
// worker count. With -json it emits an array of per-seed jsonRun records.
func runMulti(out *os.File, c engine.Config, count, workers int, root uint64, jsonOut bool) error {
	results := make([]*engine.Results, count)
	audits := make([]error, count) // a failed audit is reported after the summaries
	scratches := engine.NewScratches(parallel.ClampWorkers(workers, count))
	err := parallel.ForEach(count, workers, func(i int) error {
		rc := c
		rc.Seed = rng.DeriveSeed(root, uint64(i))
		r, err := scratches.Run(rc)
		if r == nil {
			return fmt.Errorf("replication %d (seed %d): %w", i, rc.Seed, err)
		}
		results[i], audits[i] = r, err
		return nil
	})
	if err != nil {
		return err
	}

	if jsonOut {
		recs := make([]jsonRun, count)
		for i, r := range results {
			recs[i] = newJSONRun(r)
		}
		if err := writeJSON(out, recs); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "scheme=%s workload=%s db=%d clients=%d simtime=%g seeds=%d (root %d)\n",
			c.Scheme, c.Workload.Name, c.DBSize, c.Clients, c.SimTime, count, root)
		var thr, up, hit, resp stats.Tally
		for _, r := range results {
			fmt.Fprintf(out, "seed %-20d answered=%-7d uplink/query=%-9.2f hit=%.4f resp=%.1fs\n",
				r.Config.Seed, r.QueriesAnswered, r.UplinkBitsPerQuery, r.HitRatio, r.MeanResponse)
			thr.Observe(float64(r.QueriesAnswered))
			up.Observe(r.UplinkBitsPerQuery)
			hit.Observe(r.HitRatio)
			resp.Observe(r.MeanResponse)
		}
		fmt.Fprintf(out, "--- mean over %d seeds ---\n", count)
		fmt.Fprintf(out, "queries answered:        %.1f (std %.1f)\n", thr.Mean(), thr.Std())
		fmt.Fprintf(out, "uplink cost per query:   %.2f bits (std %.2f)\n", up.Mean(), up.Std())
		fmt.Fprintf(out, "cache hit ratio:         %.4f (std %.4f)\n", hit.Mean(), hit.Std())
		fmt.Fprintf(out, "mean response time:      %.1f s (std %.1f)\n", resp.Mean(), resp.Std())
	}

	for i, err := range audits {
		if err != nil {
			return fmt.Errorf("seed %d: %w", results[i].Config.Seed, err)
		}
	}
	return nil
}

func printResults(out *os.File, r *engine.Results, verbose bool) {
	c := r.Config
	fmt.Fprintf(out, "scheme=%s workload=%s db=%d clients=%d simtime=%g seed=%d\n",
		c.Scheme, c.Workload.Name, c.DBSize, c.Clients, c.SimTime, c.Seed)
	fmt.Fprintf(out, "queries answered:        %d\n", r.QueriesAnswered)
	fmt.Fprintf(out, "uplink cost per query:   %.2f bits\n", r.UplinkBitsPerQuery)
	fmt.Fprintf(out, "cache hit ratio:         %.4f\n", r.HitRatio)
	fmt.Fprintf(out, "mean response time:      %.1f s\n", r.MeanResponse)
	fmt.Fprintf(out, "cache drops / salvages:  %d / %d\n", r.Drops, r.Salvages)
	fmt.Fprintf(out, "reports sent:            %s\n", reportMix(r))
	if verbose {
		fmt.Fprintf(out, "downlink utilization:    %.4f\n", r.DownUtilization)
		fmt.Fprintf(out, "uplink utilization:      %.4f\n", r.UpUtilization)
		fmt.Fprintf(out, "downlink bits (IR/ctl/data): %.0f / %.0f / %.0f\n",
			r.DownReportBits, r.DownControlBits, r.DownDataBits)
		fmt.Fprintf(out, "uplink bits (ctl/data):  %.0f / %.0f\n", r.UpControlBits, r.UpDataBits)
		fmt.Fprintf(out, "validation uplink msgs:  %d\n", r.ValidationUplinkMsgs)
		fmt.Fprintf(out, "items cache / fetched:   %d / %d\n", r.ItemsFromCache, r.ItemsFetched)
		fmt.Fprintf(out, "disconnections:          %d (mean %.0f s)\n", r.Disconnections, r.MeanDisconnectedFor)
		fmt.Fprintf(out, "max response time:       %.1f s\n", r.MaxResponse)
		fmt.Fprintf(out, "report overruns:         %d\n", r.IROverruns)
		if r.Config.Faults.Enabled() {
			fmt.Fprintf(out, "faults (IR lost/corrupt, up lost/corrupt): %d / %d, %d / %d\n",
				r.ReportsLost, r.ReportsCorrupted, r.UplinkMsgsLost, r.UplinkMsgsCorrupted)
			fmt.Fprintf(out, "retries / epoch drops:   %d (%.3f per query) / %d\n", r.Retries, r.RetriesPerQuery, r.EpochDegrades)
			fmt.Fprintf(out, "server crashes:          %d (%.0f s down, mean recovery %.0f s)\n",
				r.ServerCrashes, r.ServerDowntime, r.MeanRecoveryLatency)
		}
		if r.Config.Overload.Enabled() {
			fmt.Fprintf(out, "queries issued/timeout/shed/open: %d / %d / %d / %d\n",
				r.QueriesIssued, r.QueriesTimedOut, r.QueriesShed, r.QueriesInFlight)
			fmt.Fprintf(out, "channel sheds (up/down): %d / %d (peak queues %d / %d)\n",
				r.UpShedMsgs, r.DownShedMsgs, r.UpPeakQueue, r.DownPeakQueue)
			fmt.Fprintf(out, "coalesced / busy replies: %d / %d (heard %d, shed %d)\n",
				r.CoalescedFetches, r.BusyReplies, r.BusyHeard, r.RepliesShed)
		}
		if r.Config.Delivery.Enabled() {
			fmt.Fprintf(out, "seq fence (gap/dup/reorder/skew): %d / %d / %d / %d\n",
				r.IRGaps, r.IRDuplicates, r.IRReorders, r.SkewDegrades)
			fmt.Fprintf(out, "delivery adversary:      %d delayed (%d reordered), %d dups, %d partitions (%d drops)\n",
				r.DeliveryDelayed, r.DeliveryReorders, r.DeliveryDups, r.Partitions, r.PartitionDrops)
		}
		if r.Config.Churn.Enabled() {
			fmt.Fprintf(out, "churn storms:            %d (%d storm disc, %d solo, %d paced resumes)\n",
				r.Storms, r.StormDisconnects, r.SoloDisconnects, r.PacedResumes)
			fmt.Fprintf(out, "crash/restart:           %d crashes, %d warm / %d cold (%d snapshot rejects, %d down at end)\n",
				r.ClientCrashes, r.RestartsWarm, r.RestartsCold, r.SnapshotRejects, r.CrashedAtEnd)
			fmt.Fprintf(out, "offline downlink drops:  %d\n", r.OfflineDrops)
		}
		fmt.Fprintf(out, "simulated events:        %d (peak queue %d)\n", r.Events, r.PeakEventQueue)
		if r.Config.ConsistencyCheck {
			fmt.Fprintf(out, "consistency violations:  %d\n", r.ConsistencyViolations)
		}
	}
	if s := r.Spans; s != nil {
		fmt.Fprintf(out, "spans (ans/to/shed/open): %d / %d / %d / %d (anomalies %d, residual %.2g s)\n",
			s.Answered, s.TimedOut, s.Shed, s.Open, s.Anomalies, s.MaxResidual)
		fmt.Fprintf(out, "span latency p50 / p95:  %.1f / %.1f s\n", s.TotalP50, s.TotalP95)
		for p := 0; p < int(span.NumPhases); p++ {
			fmt.Fprintf(out, "  %-12s p50 %8.2f s   p95 %8.2f s   mean %8.2f s\n",
				s.PhaseName[p], s.PhaseP50[p], s.PhaseP95[p], s.PhaseMean[p])
		}
		fmt.Fprintf(out, "answer AoI mean/p50/p95/p99: %.1f / %.1f / %.1f / %.1f s (%d samples)\n",
			r.AoIMean, r.AoIP50, r.AoIP95, r.AoIP99, r.AoISamples)
	}
}

func reportMix(r *engine.Results) string {
	kinds := make([]string, 0, len(r.ReportsSent))
	for k := range r.ReportsSent {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s:%d", k, r.ReportsSent[k]))
	}
	return strings.Join(parts, " ")
}
