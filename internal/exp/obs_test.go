package exp

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/metrics"
	"mobicache/internal/trace"
)

// obsChaosConfig is an AAW run over the ext-chaos fault plan, with the
// sleeper knobs turned up so reconnecting clients carry Tlbs old enough
// to force the server through its full adaptive repertoire — windowed
// IR(w), enlarged IR(w'), and IR(BS).
func obsChaosConfig() engine.Config {
	c := ExtensionSweeps["ext-chaos"].Configure(2)
	c.Scheme = "aaw"
	c.SimTime = 20000
	c.ProbDisc = 0.3
	c.MeanDisc = 4000
	return c
}

// TestObservabilityAAWChaos is the observability acceptance run: one
// instrumented AAW chaos simulation must yield a parseable timeline CSV
// whose report-kind column shows the IR(w)<->IR(BS) adaptation, a JSONL
// event stream that is lossless (line count equals the tracer's total),
// and results bit-identical to the same run with instrumentation off.
func TestObservabilityAAWChaos(t *testing.T) {
	c := obsChaosConfig()
	reg := metrics.New()
	c.Metrics = reg
	var jsonl bytes.Buffer
	bw := bufio.NewWriter(&jsonl)
	tr := trace.New(512).SetSink(trace.NewJSONLSink(bw))
	c.Trace = tr

	r, err := engine.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if r.ConsistencyViolations != 0 {
		t.Fatalf("chaos run served stale data: %v", r.FirstViolation)
	}

	// Timeline CSV parses, with one row per sample and one header field
	// per registered column plus the time column.
	var csvBuf bytes.Buffer
	if err := reg.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not parse: %v", err)
	}
	if len(records) != reg.Len()+1 {
		t.Fatalf("timeline CSV has %d rows, want %d samples + header", len(records), reg.Len())
	}
	if want := len(reg.Names()) + 1; len(records[0]) != want {
		t.Fatalf("timeline header has %d fields, want %d", len(records[0]), want)
	}

	// The report-kind column records the adaptive switch: the server must
	// move from the windowed report to bit sequences and back at least
	// once ("-" marks intervals without a broadcast, e.g. a dead server).
	kinds := reg.LabelColumn("report_kind")
	if kinds == nil {
		t.Fatal("no report_kind column")
	}
	sawSwitch := false
	prev := ""
	for _, k := range kinds {
		if k == "-" {
			continue
		}
		if (prev == "IR(w)" && k == "IR(BS)") || (prev == "IR(BS)" && k == "IR(w)") {
			sawSwitch = true
		}
		prev = k
	}
	if !sawSwitch {
		counts := map[string]int{}
		for _, k := range kinds {
			counts[k]++
		}
		t.Fatalf("no IR(w)<->IR(BS) switch in report-kind column; kinds seen: %v", counts)
	}

	// The JSONL stream is lossless: exactly one valid line per recorded
	// event, far beyond the 512 the ring retained.
	lines := bytes.Split(bytes.TrimSuffix(jsonl.Bytes(), []byte{'\n'}), []byte{'\n'})
	if uint64(len(lines)) != tr.Total() {
		t.Fatalf("JSONL stream has %d lines, tracer recorded %d events", len(lines), tr.Total())
	}
	if uint64(len(tr.Events())) >= tr.Total() {
		t.Fatalf("ring retained %d of %d events; test should overflow the ring", len(tr.Events()), tr.Total())
	}
	for i, ln := range lines {
		var ev struct {
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v: %s", i, err, ln)
		}
		if ev.Kind == "" {
			t.Fatalf("JSONL line %d has no kind: %s", i, ln)
		}
	}

	// Instrumentation must not perturb the simulation: the same config
	// with metrics and tracing disabled lands on identical results.
	bare := obsChaosConfig()
	br, err := engine.Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if br.QueriesAnswered != r.QueriesAnswered || br.Events != r.Events ||
		br.HitRatio != r.HitRatio || br.UplinkBitsPerQuery != r.UplinkBitsPerQuery {
		t.Fatalf("instrumented run diverged: queries %d vs %d, events %d vs %d",
			r.QueriesAnswered, br.QueriesAnswered, r.Events, br.Events)
	}
}

// TestTimelineFigure exercises the registry-to-plot adapter on a real
// sweep-style run.
func TestTimelineFigure(t *testing.T) {
	c := obsChaosConfig()
	c.SimTime = 4000
	reg := metrics.New()
	c.Metrics = reg
	if _, err := engine.Run(c); err != nil {
		t.Fatal(err)
	}
	tab, err := TimelineFigure("test", reg, "queries", "retries")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Xs) != reg.Len() {
		t.Fatalf("figure has %d points, registry %d samples", len(tab.Xs), reg.Len())
	}
	out := tab.Plot(40, 10)
	if !bytes.Contains([]byte(out), []byte("Simulated Time")) {
		t.Fatalf("plot missing x label:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("column value")) {
		t.Fatalf("plot missing YLabel override:\n%s", out)
	}
	if _, err := TimelineFigure("test", reg, "no_such_column"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := TimelineFigure("test", metrics.New()); err == nil {
		t.Fatal("empty registry accepted")
	}
}

// TestSweepTimelineDir checks that the harness writes one timeline CSV
// per run when Options.TimelineDir is set.
func TestSweepTimelineDir(t *testing.T) {
	dir := t.TempDir()
	s := &Sweep{
		ID: "tl-test", XLabel: "x", Xs: []float64{1},
		Schemes: []string{"aaw", "bs"},
		Configure: func(x float64) engine.Config {
			c := base()
			c.SimTime = 2000
			return c
		},
	}
	r := NewRunner(Options{TimelineDir: dir, Seeds: []uint64{1, 2}})
	if _, err := r.RunSweep(s); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"tl-test-aaw-x1-s1.csv", "tl-test-aaw-x1-s2.csv",
		"tl-test-bs-x1-s1.csv", "tl-test-bs-x1-s2.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(data, []byte("t,")) {
			t.Fatalf("%s does not look like a timeline CSV: %.60s", name, data)
		}
	}
}

// TestAoISweepArmsSpans: every ext-aoi level arms the span layer and the
// stale-read checker with no warmup, so the sweep's audit checks the span
// identity on every run.
func TestAoISweepArmsSpans(t *testing.T) {
	sw := ExtensionSweeps["ext-aoi"]
	for _, x := range sw.Xs {
		c := sw.Configure(x)
		if err := c.Validate(); err != nil {
			t.Fatalf("level %v: %v", x, err)
		}
		if c.Spans == nil || !c.ConsistencyCheck || c.Warmup != 0 {
			t.Fatalf("level %v: spans %v, checker %v, warmup %v", x, c.Spans, c.ConsistencyCheck, c.Warmup)
		}
	}
}

// agreementMixes are the runs the observability surfaces are checked
// against Results on: heavy chaos, and every adversary layer at once with
// spans (the mobibench adversarial mix).
var agreementMixes = []struct {
	name string
	set  func(*engine.Config)
}{
	{"chaos4", func(c *engine.Config) { c.Faults = ChaosFaults(4) }},
	{"adversarial", func(c *engine.Config) {
		c.Faults = ChaosFaults(2)
		OverloadGuardrails(c)
		c.Delivery = delivery.Severity(2)
		c.Churn = churn.Severity(2)
		c.Spans = &engine.SpanOptions{}
	}},
}

// agreementConfig is one scheme under one agreement mix, with no warmup
// so every tally covers the whole run.
func agreementConfig(scheme string, set func(*engine.Config)) engine.Config {
	c := engine.Default()
	c.Scheme = scheme
	c.SimTime = 20000
	c.MeanDisc = 400
	c.Warmup = 0
	set(&c)
	return c
}

// TestTimelineAgreesWithResults: every client counter column of the
// timeline polls a tally Results is built from, so with no warmup each
// column sums to its Results field exactly. It covers all seven schemes
// under both agreement mixes, and requires each column to be non-zero
// somewhere so no comparison passes vacuously. queries_shed is the
// exception: a query is shed only when no retry policy is armed, and
// both mixes arm one.
func TestTimelineAgreesWithResults(t *testing.T) {
	seen := map[string]bool{}
	for _, mix := range agreementMixes {
		for _, scheme := range AllSchemes {
			c := agreementConfig(scheme, mix.set)
			reg := metrics.New()
			c.Metrics = reg
			r, err := engine.Run(c)
			if err != nil {
				t.Fatalf("%s/%s: %v", mix.name, scheme, err)
			}
			for _, col := range []struct {
				name string
				want int64
			}{
				{"queries", r.QueriesAnswered},
				{"retries", r.Retries},
				{"reports_lost", r.ReportsLost},
				{"reports_corrupt", r.ReportsCorrupted},
				{"epoch_degrades", r.EpochDegrades},
				{"disconnects", r.SoloDisconnects},
				{"salvages", r.Salvages},
				{"drops", r.Drops},
				{"deadline_miss", r.QueriesTimedOut},
				{"queries_shed", r.QueriesShed},
				{"ir_gaps", r.IRGaps},
				{"ir_dups", r.IRDuplicates},
				{"ir_reorders", r.IRReorders},
			} {
				var sum float64
				for _, v := range reg.Column(col.name) {
					sum += v
				}
				if sum != float64(col.want) {
					t.Errorf("%s/%s: column %s sums to %v, Results has %d",
						mix.name, scheme, col.name, sum, col.want)
				}
				seen[col.name] = seen[col.name] || sum > 0
			}
		}
	}
	for name, nonZero := range seen {
		if !nonZero && name != "queries_shed" {
			t.Errorf("column %s is zero in every run", name)
		}
	}
}

// traceRelations are the trace ↔ Results relations: over a run with no
// warmup each listed kind's Tracer.Count sums to the field. The
// whole-cache verdicts are read off the counters Results is built from,
// so every drop is a CacheDrop (a scheme call emptied the cache) or a
// cold churn restart, and every salvage a CacheSalvage or a warm restart.
// Every solo disconnect is a Disconnect; a churn storm's disconnects are
// traced only as its StormStart's cohort size, which
// TestTraceAgreesWithResults sums. A FaultCorrupt is a report a
// client failed to decode or an uplink message the server could not parse
// (the agreement mixes corrupt no uplink traffic, so the second term is
// 0 there). QueryShed = QueriesShed and
// ServerBusy = BusyReplies also hold, but both are 0 under the agreement
// mixes (a query is shed only when no retry policy is armed, and both
// mixes arm one; no pending table reaches its cap), so they are not
// listed: a relation that only ever compares zeros checks nothing.
var traceRelations = []struct {
	kinds []trace.Kind
	field string
	get   func(*engine.Results) int64
}{
	{[]trace.Kind{trace.CacheDrop, trace.RestartCold}, "Drops", func(r *engine.Results) int64 { return r.Drops }},
	{[]trace.Kind{trace.CacheSalvage, trace.RestartWarm}, "Salvages", func(r *engine.Results) int64 { return r.Salvages }},
	{[]trace.Kind{trace.Disconnect}, "SoloDisconnects", func(r *engine.Results) int64 { return r.SoloDisconnects }},
	{[]trace.Kind{trace.QueryDone}, "QueriesAnswered", func(r *engine.Results) int64 { return r.QueriesAnswered }},
	{[]trace.Kind{trace.QueryDeadline}, "QueriesTimedOut", func(r *engine.Results) int64 { return r.QueriesTimedOut }},
	{[]trace.Kind{trace.RetryAttempt}, "Retries", func(r *engine.Results) int64 { return r.Retries }},
	{[]trace.Kind{trace.IRGap}, "IRGaps", func(r *engine.Results) int64 { return r.IRGaps }},
	{[]trace.Kind{trace.IRDuplicate}, "IRDuplicates", func(r *engine.Results) int64 { return r.IRDuplicates }},
	{[]trace.Kind{trace.IRReorder}, "IRReorders", func(r *engine.Results) int64 { return r.IRReorders }},
	{[]trace.Kind{trace.ServerCrash}, "ServerCrashes", func(r *engine.Results) int64 { return r.ServerCrashes }},
	{[]trace.Kind{trace.Coalesced}, "CoalescedFetches", func(r *engine.Results) int64 { return r.CoalescedFetches }},
	{[]trace.Kind{trace.StormStart}, "Storms", func(r *engine.Results) int64 { return r.Storms }},
	{[]trace.Kind{trace.ClientCrash}, "ClientCrashes", func(r *engine.Results) int64 { return r.ClientCrashes }},
	{[]trace.Kind{trace.RestartWarm}, "RestartsWarm", func(r *engine.Results) int64 { return r.RestartsWarm }},
	{[]trace.Kind{trace.RestartCold}, "RestartsCold", func(r *engine.Results) int64 { return r.RestartsCold }},
	{[]trace.Kind{trace.SnapshotReject}, "SnapshotRejects", func(r *engine.Results) int64 { return r.SnapshotRejects }},
	{[]trace.Kind{trace.ResyncPaced}, "PacedResumes", func(r *engine.Results) int64 { return r.PacedResumes }},
	{[]trace.Kind{trace.PartitionStart}, "Partitions", func(r *engine.Results) int64 { return r.Partitions }},
	{[]trace.Kind{trace.FaultCorrupt}, "ReportsCorrupted + UplinkMsgsCorrupted", func(r *engine.Results) int64 {
		return r.ReportsCorrupted + r.UplinkMsgsCorrupted
	}},
}

// cohortSink sums the cohort sizes (A) of the StormStart events it sees.
type cohortSink struct{ cohorts int64 }

func (s *cohortSink) Write(e trace.Event) error {
	if e.Kind == trace.StormStart {
		s.cohorts += e.A
	}
	return nil
}

// TestTraceAgreesWithResults pins every traceRelations entry for all
// seven schemes under both agreement mixes, and requires each relation to
// be non-zero somewhere so none passes vacuously. It also pins the storm
// disconnects, which are not traced one by one: the StormStart cohort
// sizes sum to StormDisconnects, so with Disconnect = SoloDisconnects
// every disconnection is accounted for (Disconnect + Σ cohort =
// Disconnections). That sum holds only while no storm catches a host
// whose paced resume from the previous storm is still pending (the host
// joins the cohort but is already down, so it counts no disconnect); both
// mixes heal every cohort before the next storm.
func TestTraceAgreesWithResults(t *testing.T) {
	seen := make([]int64, len(traceRelations))
	var stormed int64
	for _, mix := range agreementMixes {
		for _, scheme := range AllSchemes {
			c := agreementConfig(scheme, mix.set)
			sink := &cohortSink{}
			tr := trace.New(1).SetSink(sink)
			c.Trace = tr
			r, err := engine.Run(c)
			if err != nil {
				t.Fatalf("%s/%s: %v", mix.name, scheme, err)
			}
			if sink.cohorts != r.StormDisconnects {
				t.Errorf("%s/%s: StormStart cohorts sum to %d, Results.StormDisconnects = %d", mix.name, scheme, sink.cohorts, r.StormDisconnects)
			}
			if got := int64(tr.Count(trace.Disconnect)) + sink.cohorts; got != r.Disconnections {
				t.Errorf("%s/%s: Disconnect + storm cohorts = %d, Results.Disconnections = %d", mix.name, scheme, got, r.Disconnections)
			}
			stormed += sink.cohorts
			for i, rel := range traceRelations {
				var got int64
				for _, k := range rel.kinds {
					got += int64(tr.Count(k))
				}
				if want := rel.get(r); got != want {
					t.Errorf("%s/%s: trace %v counts %d, Results.%s = %d", mix.name, scheme, rel.kinds, got, rel.field, want)
				}
				seen[i] += got
			}
		}
	}
	for i, rel := range traceRelations {
		if seen[i] == 0 {
			t.Errorf("vacuous: trace %v = Results.%s is 0 in every run", rel.kinds, rel.field)
		}
	}
	if stormed == 0 {
		t.Error("vacuous: no storm disconnected anyone in any run")
	}
}
