package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

func manifestConfig() Config {
	c := Default()
	c.SimTime = 4000
	c.MeanDisc = 400
	c.Workload = workload.HotCold(c.DBSize)
	c.Seed = 7
	c.Faults = faults.Config{
		DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.25},
		CrashMTBF: 1500,
		CrashMTTR: 120,
		Retry:     faults.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6},
	}
	return c
}

// TestManifestReplay is the manifest acceptance loop: record a run, feed
// the manifest's config back through the engine, and require the exact
// recorded digest.
func TestManifestReplay(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	if m.Scheme != "aaw" || m.Workload != "HOTCOLD" || m.Seed != 7 {
		t.Fatalf("manifest identity fields wrong: %+v", m)
	}
	if m.GoVersion == "" || m.SchemaVersion != ManifestSchemaVersion {
		t.Fatalf("manifest build fields wrong: version %q schema %d", m.GoVersion, m.SchemaVersion)
	}
	if m.Digest != mustDigest(t, r) {
		t.Fatalf("manifest digest %q, run digest %q", m.Digest, mustDigest(t, r))
	}
	if m.Events != r.Events || m.PeakEventQueue != r.PeakEventQueue || m.PeakEventQueue <= 0 {
		t.Fatalf("manifest profile wrong: events %d/%d peak %d/%d",
			m.Events, r.Events, m.PeakEventQueue, r.PeakEventQueue)
	}

	c2, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r2); err != nil {
		t.Fatalf("replay did not reproduce the run: %v", err)
	}
	// A different seed must be caught.
	c2.Seed = 8
	r3, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r3); err == nil {
		t.Fatal("VerifyReplay accepted a divergent run")
	}
}

// TestManifestJSONRoundTrip checks Write/Read preserve every field.
func TestManifestJSONRoundTrip(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	m.Stamp(1.25)
	if m.WallClockSec != 1.25 || m.EventsPerSec != float64(m.Events)/1.25 {
		t.Fatalf("Stamp: wall %v events/s %v", m.WallClockSec, m.EventsPerSec)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", m, got)
	}

	// The manifest records Config through its json tags: every field must
	// carry one, so a new knob cannot silently drop out of the file, and
	// only the five runtime fields are left out.
	runtimeFields := map[string]bool{"Workload": true, "Trace": true, "Metrics": true, "Aggregate": true, "Spans": true}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || (tag == "-") != runtimeFields[f.Name] {
			t.Errorf("Config field %s has json tag %q", f.Name, tag)
		}
	}
}

// asSchema renders m the way schema v wrote it: no digest key (added in
// 8), before 7 no cells or move_prob keys either, with extra keys merged
// in.
func asSchema(t *testing.T, m *Manifest, v int, extra map[string]json.RawMessage) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var kv map[string]json.RawMessage
	if err := json.Unmarshal(b, &kv); err != nil {
		t.Fatal(err)
	}
	delete(kv, "digest")
	if v < 7 {
		delete(kv, "cells")
		delete(kv, "move_prob")
	}
	kv["schema_version"] = json.RawMessage(strconv.Itoa(v))
	for k, raw := range extra {
		kv[k] = raw
	}
	if b, err = json.Marshal(kv); err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// replayFile reads a manifest file, replays it, and verifies the replay.
func replayFile(t *testing.T, file string) Config {
	t.Helper()
	m, err := ReadManifest(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r); err != nil {
		t.Fatalf("schema %d manifest did not replay: %v", m.SchemaVersion, err)
	}
	return c
}

// TestManifestV6AggregateKeyDecodes replays a schema-6 file written when
// the manifest still recorded the client representation: the obsolete
// "aggregate" key is skipped on decode and the run still verifies.
func TestManifestV6AggregateKeyDecodes(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	v6 := asSchema(t, NewManifest(r), 6, map[string]json.RawMessage{"aggregate": json.RawMessage("true")})
	if !strings.Contains(v6, `"aggregate":true`) || !strings.Contains(v6, `"schema_version":6`) {
		t.Fatalf("fixture is not a v6 manifest with the aggregate key:\n%s", v6)
	}
	replayFile(t, v6)
}

// TestManifestV6ReplaysAsOneCell: a file written before the cell count
// was recorded has no cells key and replays as the single cell it ran.
func TestManifestV6ReplaysAsOneCell(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	v6 := asSchema(t, NewManifest(r), 6, nil)
	if strings.Contains(v6, `"cells"`) || strings.Contains(v6, `"move_prob"`) {
		t.Fatalf("fixture carries schema-7 keys:\n%s", v6)
	}
	if c := replayFile(t, v6); c.Cells != 1 || c.MoveProb != 0 {
		t.Fatalf("v6 manifest replayed as %d cells, move prob %v", c.Cells, c.MoveProb)
	}
}

// TestManifestV7Replays: a schema-7 file carries no digest and replays
// by its headline numbers, which still catch a different seed.
func TestManifestV7Replays(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	v7 := asSchema(t, NewManifest(r), 7, nil)
	if strings.Contains(v7, `"digest"`) || !strings.Contains(v7, `"cells":1`) {
		t.Fatalf("fixture is not a v7 manifest:\n%s", v7)
	}
	replayFile(t, v7)
	m, err := ReadManifest(strings.NewReader(v7))
	if err != nil {
		t.Fatal(err)
	}
	c := manifestConfig()
	c.Seed = 8
	if err := m.VerifyReplay(mustRun(t, c)); err == nil {
		t.Fatal("v7 VerifyReplay accepted a divergent run")
	}
}

// TestManifestWarmupKey: the retired warmup key still decodes. A file
// that records 0 replays by its digest as before; any other value is
// refused with an error naming the key, since every run measures its
// whole horizon.
func TestManifestWarmupKey(t *testing.T) {
	r := mustRun(t, manifestConfig())
	var buf bytes.Buffer
	if err := NewManifest(r).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, warmup := range []string{"0", "1000"} {
		file := strings.Replace(buf.String(), `"sim_time":`, `"warmup": `+warmup+`, "sim_time":`, 1)
		m, err := ReadManifest(strings.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.EngineConfig()
		if warmup != "0" {
			if err == nil || !strings.Contains(err.Error(), "warmup") {
				t.Fatalf("warmup %s accepted: %v", warmup, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyReplay(mustRun(t, c)); err != nil {
			t.Fatalf("warmup 0 did not replay: %v", err)
		}
	}
}

// TestManifestVerifiesEveryField: a schema-8 manifest verifies the whole
// digest, so a replay that differs only in a counter the headline
// numbers do not cover is rejected.
func TestManifestVerifiesEveryField(t *testing.T) {
	r := mustRun(t, manifestConfig())
	m := NewManifest(r)
	replay := *r
	replay.Retries++
	if err := m.VerifyReplay(&replay); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("a replay with one more retry verified: %v", err)
	}
}

// TestManifestReplaysInstrumentedRun: the manifest of a run with a
// tracer, a metrics registry and kept spans holds none of them, even
// before it is written out, so its replay builds fresh ones (re-arming
// spans) and verifies by digest.
func TestManifestReplaysInstrumentedRun(t *testing.T) {
	c := manifestConfig()
	c.Trace = trace.New(1000)
	c.Metrics = metrics.New()
	c.Spans = &SpanOptions{Keep: true}
	m := NewManifest(mustRun(t, c))
	rc, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Trace != nil || rc.Metrics != nil || rc.Spans == nil || rc.Spans.Keep {
		t.Fatalf("replay config carries runtime wiring: trace %t, metrics %t, spans %+v",
			rc.Trace != nil, rc.Metrics != nil, rc.Spans)
	}
	if err := m.VerifyReplay(mustRun(t, rc)); err != nil {
		t.Fatal(err)
	}
}

// TestManifestMulticellRoundTrip: a multi-cell run's manifest rebuilds
// the same Config and replays to the recorded digest.
func TestManifestMulticellRoundTrip(t *testing.T) {
	c := multicellConfig()
	c.Cells = 3
	c.MoveProb = 0.5
	c.Workload = workload.HotCold(c.DBSize)
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewManifest(r).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload.Name != c.Workload.Name {
		t.Fatalf("workload %q, want %q", got.Workload.Name, c.Workload.Name)
	}
	got.Workload, c.Workload = workload.Workload{}, workload.Workload{}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("manifest config diverged:\nran     %+v\nreplays %+v", c, got)
	}
	got.Workload = workload.HotCold(got.DBSize)
	r2, err := Run(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r2); err != nil {
		t.Fatal(err)
	}
	if r2.Handoffs != r.Handoffs || len(r2.PerCell) != 3 {
		t.Fatalf("replay ran %d cells with %d handoffs, recorded 3 with %d",
			len(r2.PerCell), r2.Handoffs, r.Handoffs)
	}
}

func TestManifestErrors(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	m.SchemaVersion = 99
	if _, err := m.EngineConfig(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale schema accepted: %v", err)
	}
	m.SchemaVersion = ManifestSchemaVersion
	m.Workload = "bogus"
	if _, err := m.EngineConfig(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := ReadManifest(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
