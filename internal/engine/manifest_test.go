package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mobicache/internal/faults"
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

	// Every exported Manifest field must carry a json tag so nothing can
	// silently vanish from the file.
	mt := reflect.TypeOf(Manifest{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if tag := f.Tag.Get("json"); tag == "" || tag == "-" {
			t.Fatalf("Manifest field %s has no json tag", f.Name)
		}
	}
}

// TestManifestV6AggregateKeyDecodes replays a schema-6 file written when
// the manifest still recorded the client representation: the obsolete
// "aggregate" key is skipped on decode and the run still verifies.
func TestManifestV6AggregateKeyDecodes(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewManifest(r).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	v6 := strings.Replace(buf.String(), `"report_loss_prob"`, `"aggregate": true, "report_loss_prob"`, 1)
	if !strings.Contains(v6, `"aggregate": true`) || !strings.Contains(v6, `"schema_version": 6`) {
		t.Fatalf("fixture is not a v6 manifest with the aggregate key:\n%s", v6)
	}
	m, err := ReadManifest(strings.NewReader(v6))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r2); err != nil {
		t.Fatalf("v6 manifest with the aggregate key did not replay: %v", err)
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
