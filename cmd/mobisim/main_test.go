package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobicache/internal/core"
	"mobicache/internal/engine"
	"mobicache/internal/report"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// decodeOne decodes out strictly into v and requires it to be the only
// JSON value on stdout: an unknown key fails, and so does any trailing
// text.
func decodeOne(t *testing.T, out string, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("-json output goes on after its value (%v):\n%s", err, out)
	}
}

// checkRecord requires a -json record's digest to be engine.Digest of the
// Results it carries, and its measured time to be the whole horizon (no
// test run has a warmup).
func checkRecord(t *testing.T, rec jsonRun) {
	t.Helper()
	if rec.Manifest == nil || rec.Results == nil {
		t.Fatalf("record lacks its manifest or results: %+v", rec)
	}
	if d, err := engine.Digest(rec.Results); err != nil || d != rec.Digest {
		t.Fatalf("Digest(results) = %s (%v), record says %s", d, err, rec.Digest)
	}
	if rec.Results.MeasuredTime != rec.SimTime {
		t.Fatalf("measured %v != simtime %v with no warmup", rec.Results.MeasuredTime, rec.SimTime)
	}
}

// replays writes a -json record to a file and requires -from-manifest to
// replay it and verify the digest.
func replays(t *testing.T, out string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	rout, err := runCapture(t, "-from-manifest", path)
	if err != nil {
		t.Fatalf("replay of the -json record failed: %v\n%s", err, rout)
	}
	if !strings.Contains(rout, "replay verified") {
		t.Fatalf("no replay verification in output:\n%s", rout)
	}
}

func TestRunBasic(t *testing.T) {
	out, err := runCapture(t, "-scheme", "aaw", "-simtime", "2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"queries answered:", "uplink cost per query:", "scheme=aaw"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVerboseAndCheck(t *testing.T) {
	out, err := runCapture(t, "-scheme", "ts-check", "-simtime", "2000", "-check", "-v")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"downlink utilization:", "consistency violations:  0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWorkloads(t *testing.T) {
	for _, wl := range []string{"uniform", "hotcold", "zipf:0.9"} {
		if _, err := runCapture(t, "-workload", wl, "-simtime", "1000"); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
}

func TestRunTrace(t *testing.T) {
	out, err := runCapture(t, "-simtime", "1000", "-trace", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "protocol events") {
		t.Fatalf("no trace section:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-scheme", "bogus", "-simtime", "1000"},
		{"-workload", "bogus", "-simtime", "1000"},
		{"-workload", "zipf:x", "-simtime", "1000"},
		{"-db", "1", "-simtime", "1000"},
		{"-badflag"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunMultiSeed(t *testing.T) {
	// The multi-seed batch must print one line per derived seed plus the
	// averaged block, and the output must not depend on the worker count.
	ref, err := runCapture(t, "-simtime", "1000", "-seeds", "3", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seeds=3", "--- mean over 3 seeds ---", "queries answered:"} {
		if !strings.Contains(ref, want) {
			t.Fatalf("output missing %q:\n%s", want, ref)
		}
	}
	if n := strings.Count(ref, "\nseed "); n != 3 {
		t.Fatalf("want 3 per-seed lines, got %d:\n%s", n, ref)
	}
	for _, form := range [][]string{nil, {"-json"}} {
		want := ref
		if form != nil {
			if want, err = runCapture(t, append(form, "-simtime", "1000", "-seeds", "3", "-workers", "1")...); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{2, 8} {
			out, err := runCapture(t, append(form, "-simtime", "1000", "-seeds", "3",
				"-workers", fmt.Sprint(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			if out != want {
				t.Fatalf("%v workers=%d output differs from serial:\n%s\n---\n%s", form, workers, out, want)
			}
		}
	}
}

func TestRunMultiSeedJSON(t *testing.T) {
	out, err := runCapture(t, "-simtime", "1000", "-seeds", "2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []jsonRun
	decodeOne(t, out, &recs)
	if len(recs) != 2 || recs[0].Seed == recs[1].Seed {
		t.Fatalf("want 2 distinct-seed records, got %d:\n%s", len(recs), out)
	}
	for _, rec := range recs {
		checkRecord(t, rec)
		if rec.Results.QueriesAnswered <= 0 {
			t.Fatalf("implausible replication: %+v", rec.Results)
		}
	}
}

func TestRunMultiSeedFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-seeds", "2", "-manifest", filepath.Join(dir, "m.json")},
		{"-seeds", "2", "-timeline", filepath.Join(dir, "t.csv")},
		{"-seeds", "2", "-trace", "5"},
		{"-seeds", "2", "-trace-jsonl", filepath.Join(dir, "e.jsonl")},
	}
	for _, args := range cases {
		args = append(args, "-simtime", "500")
		if _, err := runCapture(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestSortedNames(t *testing.T) {
	names := core.Names()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("unsorted: %v", names)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out, err := runCapture(t, "-simtime", "1000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scheme": "aaw"`, `"digest"`, `"results"`, `"QueriesAnswered"`, `"HitRatio"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json missing %q:\n%s", want, out)
		}
	}
}

func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.csv")
	ev := filepath.Join(dir, "ev.jsonl")
	man := filepath.Join(dir, "run.json")
	if _, err := runCapture(t, "-simtime", "2000", "-timeline", tl,
		"-trace-jsonl", ev, "-manifest", man); err != nil {
		t.Fatal(err)
	}

	csvData, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(csvData)).ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not parse: %v", err)
	}
	if len(recs) < 10 || recs[0][0] != "t" {
		t.Fatalf("timeline CSV looks wrong: %d rows, header %v", len(recs), recs[0])
	}

	evData, err := os.ReadFile(ev)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(evData, []byte{'\n'}), []byte{'\n'})
	if len(lines) == 0 {
		t.Fatal("empty JSONL stream")
	}
	for _, ln := range lines {
		var v map[string]any
		if err := json.Unmarshal(ln, &v); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
	}

	manData, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(manData, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m["scheme"] != "aaw" || m["wall_clock_sec"].(float64) <= 0 {
		t.Fatalf("manifest fields wrong: %v", m)
	}

	// The manifest must reproduce the run when fed back in.
	out, err := runCapture(t, "-from-manifest", man)
	if err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replay verified") {
		t.Fatalf("no replay verification in output:\n%s", out)
	}
	// Spans would add fields the recorded digest does not have.
	if _, err := runCapture(t, "-from-manifest", man, "-spans", filepath.Join(dir, "s.json")); err == nil {
		t.Fatal("-spans armed on the replay of a run recorded without spans")
	}
}

// blindClient marks the cache validated through every report without
// reading it, so a run on it serves stale items and fails its audit.
type blindClient struct{}

func (blindClient) HandleReport(st *core.ClientState, r report.Report, _ float64) core.Outcome {
	st.Tlb = r.Time()
	return core.Outcome{Ready: true}
}

func (blindClient) HandleValidity(*core.ClientState, *report.ValidityReport, float64) core.Outcome {
	panic("blind client: no validity exchange")
}

type blindScheme struct{ core.Scheme }

func (blindScheme) Name() string                          { return "blind" }
func (blindScheme) NewClient(core.Params) core.ClientSide { return blindClient{} }

// TestFailedAuditPrintsResults: a run that fails its audit still prints
// its results, then exits with the audit's error, single-seed and
// multi-seed alike.
func TestFailedAuditPrintsResults(t *testing.T) {
	core.Registry["blind"] = blindScheme{core.Registry["ts"]}
	defer delete(core.Registry, "blind")
	for _, extra := range [][]string{nil, {"-seeds", "2"}} {
		args := append([]string{"-scheme", "blind", "-check", "-v", "-workload", "hotcold",
			"-update", "10", "-simtime", "4000"}, extra...)
		out, err := runCapture(t, args...)
		if err == nil || !strings.Contains(err.Error(), "stale read") {
			t.Fatalf("%v: a stale run exited with %v", extra, err)
		}
		if !strings.Contains(out, "queries answered:") {
			t.Fatalf("%v: the failed run printed no results:\n%s", extra, out)
		}
	}
}

// TestLegacyLossManifestReplays: testdata/report-loss-v8.json is a
// schema-8 manifest of a 20-client run with the since-retired
// report_loss_prob knob at 0.2, written by a mobisim that still had it.
// Its key now maps onto Faults.DownLoss = Bernoulli(0.2), and the replay
// must match the recorded digest.
func TestLegacyLossManifestReplays(t *testing.T) {
	out, err := runCapture(t, "-from-manifest", filepath.Join("testdata", "report-loss-v8.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replay verified") {
		t.Fatalf("legacy lossy manifest did not replay:\n%s", out)
	}
}

func TestFromManifestErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "-from-manifest", bad); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if _, err := runCapture(t, "-from-manifest", filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := runCapture(t, "-simtime", "1000", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestJSONRoundTrip decodes -json output strictly into jsonRun (an
// unknown or misspelled key fails the decode), checks its digest against
// its Results, and replays it as a manifest.
func TestJSONRoundTrip(t *testing.T) {
	out, err := runCapture(t, "-simtime", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rec jsonRun
	decodeOne(t, out, &rec)
	checkRecord(t, rec)
	if r := rec.Results; r.QueriesAnswered <= 0 || r.Events == 0 || r.PeakEventQueue <= 0 {
		t.Fatalf("round-tripped results implausible: %+v", r)
	}
	if rec.WallClockSec != 0 {
		t.Fatalf("-json record is stamped (wall clock %v s), so it is not deterministic", rec.WallClockSec)
	}
	replays(t, out)
}

// TestJSONStdoutIsOneValue: under -json, stdout holds exactly one JSON
// value. A replay's verdict goes to stderr, -trace, whose dump is text, is
// refused in favour of -trace-jsonl, and -validate-spans reports its
// event count as {"trace_events": N}, the count its text line gives.
func TestJSONStdoutIsOneValue(t *testing.T) {
	man := filepath.Join(t.TempDir(), "run.json")
	if _, err := runCapture(t, "-simtime", "1000", "-manifest", man); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "-from-manifest", man, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rec jsonRun
	decodeOne(t, out, &rec)
	checkRecord(t, rec)

	_, err = runCapture(t, "-simtime", "1000", "-json", "-trace", "2")
	if err == nil || !strings.Contains(err.Error(), "-trace-jsonl") {
		t.Fatalf("-json -trace 2 gave %v, want a refusal naming -trace-jsonl", err)
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	if _, err := runCapture(t, "-simtime", "1000", "-spans", spans); err != nil {
		t.Fatal(err)
	}
	text, err := runCapture(t, "-validate-spans", spans)
	if err != nil {
		t.Fatal(err)
	}
	out, err = runCapture(t, "-validate-spans", spans, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		TraceEvents int `json:"trace_events"`
	}
	decodeOne(t, out, &v)
	if want := fmt.Sprintf("spans file OK: %d trace events\n", v.TraceEvents); v.TraceEvents == 0 || text != want {
		t.Fatalf("-validate-spans -json counted %d trace events; the text form says %q", v.TraceEvents, text)
	}
}

// TestSpansFlow exercises the -spans pipeline end to end: a chaos run
// writes a Perfetto-loadable span file, -validate-spans accepts it, the
// summary block appears in the text output, and the flag refuses to
// combine with replication mode.
func TestSpansFlow(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "spans.json")
	out, err := runCapture(t, "-scheme", "aaw", "-simtime", "2000",
		"-chaos", "2", "-spans", file)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spans (ans/to/shed/open):", "ir_wait", "answer AoI"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	vout, err := runCapture(t, "-validate-spans", file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout, "spans file OK:") {
		t.Fatalf("validation output: %s", vout)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"no":"events"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "-validate-spans", bad); err == nil {
		t.Fatal("-validate-spans accepted a schema-less file")
	}

	if _, err := runCapture(t, "-simtime", "2000", "-seeds", "2", "-spans", file); err == nil {
		t.Fatal("-spans combined with -seeds > 1")
	}
}

// TestSpansJSONCarriesSummary pins the -json view of the span layer.
func TestSpansJSONCarriesSummary(t *testing.T) {
	dir := t.TempDir()
	out, err := runCapture(t, "-simtime", "2000",
		"-spans", filepath.Join(dir, "s.json"), "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rec jsonRun
	decodeOne(t, out, &rec)
	checkRecord(t, rec)
	r := rec.Results
	if !rec.SpansEnabled || r.Spans == nil || r.Spans.Answered == 0 {
		t.Fatalf("span summary missing from -json: enabled %v, %+v", rec.SpansEnabled, r.Spans)
	}
	if r.AoISamples == 0 || r.AoIP95 < r.AoIP50 {
		t.Fatalf("AoI fields implausible: %+v", r)
	}
	replays(t, out)
}
