package engine

import (
	"bytes"
	"strings"
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/parallel"
	"mobicache/internal/trace"
)

// spanChaos is the compound fault setting the span tests run under:
// bursty loss and corruption on both channels plus server crashes, so
// retries, crash epochs and coalescing all exercise the assembler.
func spanChaos(c *Config) {
	c.Faults.DownLoss = faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.375, CorruptBad: 0.075}
	c.Faults.UpLoss = faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.225}
	c.Faults.CrashMTBF = 2000
	c.Faults.CrashMTTR = 120
	c.Faults.Retry = chaosRetry()
}

// TestSpanFreeResultsUnchanged pins two invariants at once. First, the
// frozen seed-1 goldens (shared with the fault/overload/delivery free
// tests): the span layer, when disabled, must add zero events and
// consume zero randomness, and the new tx-start/arrival trace stamps
// must not perturb channel timing. Second, ENABLING the layer must not
// move the digest either — assembly is a pure fold over events the run
// already emits, so an instrumented run is bit-identical to its
// uninstrumented twin.
func TestSpanFreeResultsUnchanged(t *testing.T) {
	golden := []struct {
		scheme  string
		queries int64
		events  uint64
		hits    int64
		upBits  float64
	}{
		{"aaw", 732, 11527, 32, 2784},
		{"ts-check", 732, 11565, 32, 17328},
		{"bs", 656, 10533, 26, 0},
		{"sig", 720, 11354, 29, 0},
	}
	for _, g := range golden {
		c := short()
		c.Scheme = g.scheme
		r := mustRun(t, c)
		if r.QueriesAnswered != g.queries || r.Events != g.events ||
			r.CacheHits != g.hits || r.UplinkValidationBits != g.upBits {
			t.Fatalf("%s: seeded results moved with spans disabled: queries=%d events=%d hits=%d upbits=%g, want %+v",
				g.scheme, r.QueriesAnswered, r.Events, r.CacheHits, r.UplinkValidationBits, g)
		}
		if r.Spans != nil || r.AoISamples != 0 || r.AoIP95 != 0 {
			t.Fatalf("%s: span/AoI results nonzero with the layer disabled", g.scheme)
		}

		ce := c
		ce.Spans = &SpanOptions{}
		re := mustRun(t, ce)
		if re.QueriesAnswered != g.queries || re.Events != g.events ||
			re.CacheHits != g.hits || re.UplinkValidationBits != g.upBits {
			t.Fatalf("%s: enabling spans moved the digest: queries=%d events=%d hits=%d upbits=%g, want %+v",
				g.scheme, re.QueriesAnswered, re.Events, re.CacheHits, re.UplinkValidationBits, g)
		}
		if re.MeanResponse != r.MeanResponse || re.HitRatio != r.HitRatio {
			t.Fatalf("%s: enabling spans moved response/hit statistics", g.scheme)
		}
		if re.Spans == nil {
			t.Fatalf("%s: no span summary with the layer enabled", g.scheme)
		}
	}
}

// TestSpanIdentityAllSchemes is the accounting-identity property under
// compound chaos: for every scheme, every issued query assembles into
// exactly one terminal span whose outcome matches the engine's own
// query counters, with an anomaly-free fold and a phase decomposition
// that sums to the total latency within float tolerance.
func TestSpanIdentityAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		c := short()
		c.Scheme = scheme
		c.Spans = &SpanOptions{}
		spanChaos(&c)
		r := mustRun(t, c)
		if r.Spans == nil {
			t.Fatalf("%s: no span summary", scheme)
		}
		if r.Spans.TotalP50 <= 0 || r.Spans.TotalP95 < r.Spans.TotalP50 {
			t.Fatalf("%s: span latency percentiles out of order: p50=%v p95=%v",
				scheme, r.Spans.TotalP50, r.Spans.TotalP95)
		}
	}
}

// TestSpanAoITrack checks the age-of-information semantics end to end:
// samples exist for cache hits and fetches alike, percentiles are
// ordered, the mean is consistent with the sample count, and a
// higher-update-rate run answers with fresher data (smaller ages come
// from recent updates: AoI measures time since the item's last server
// write, so more frequent writes shrink it).
func TestSpanAoITrack(t *testing.T) {
	c := short()
	c.Scheme = "aaw"
	c.Spans = &SpanOptions{}
	r := mustRun(t, c)
	if r.AoISamples == 0 {
		t.Fatal("no AoI samples")
	}
	if !(r.AoIP50 <= r.AoIP95 && r.AoIP95 <= r.AoIP99) {
		t.Fatalf("AoI percentiles out of order: p50=%v p95=%v p99=%v",
			r.AoIP50, r.AoIP95, r.AoIP99)
	}
	if r.AoIMean <= 0 || r.AoIMean > c.SimTime {
		t.Fatalf("AoI mean %v outside (0, horizon]", r.AoIMean)
	}

	fresh := c
	fresh.MeanUpdate = c.MeanUpdate / 10
	rf := mustRun(t, fresh)
	if rf.AoIMean >= r.AoIMean {
		t.Fatalf("10x update rate did not lower AoI: %v >= %v", rf.AoIMean, r.AoIMean)
	}
}

// TestSpanManifestReplay closes the reproducibility loop for the new
// layer: a spans-enabled run's manifest re-arms the layer on replay and
// verifies the span digest, and the exported trace-event file is
// byte-identical across replays executed under 1, 2 and 8 workers.
func TestSpanManifestReplay(t *testing.T) {
	c := short()
	c.Scheme = "aaw"
	c.Spans = &SpanOptions{Keep: true}
	spanChaos(&c)
	r := mustRun(t, c)
	m := NewManifest(r)
	if !m.SpansEnabled || m.SpanTerminal != r.Spans.Terminal() || m.AoIP95 != r.AoIP95 {
		t.Fatalf("manifest span digest wrong: %+v", m)
	}
	var ref bytes.Buffer
	if err := r.Spans.WriteTrace(&ref); err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("empty span file")
	}

	rc, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Spans == nil {
		t.Fatal("replay config did not re-arm the span layer")
	}
	rc.Spans.Keep = true
	for _, workers := range []int{1, 2, 8} {
		const replicas = 3
		files := make([][]byte, replicas)
		err := parallel.ForEach(replicas, workers, func(i int) error {
			rr, err := Run(rc)
			if err != nil {
				return err
			}
			if err := m.VerifyReplay(rr); err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := rr.Spans.WriteTrace(&buf); err != nil {
				return err
			}
			files[i] = buf.Bytes()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, f := range files {
			if !bytes.Equal(f, ref.Bytes()) {
				t.Fatalf("workers=%d replica %d: span file diverged (%d vs %d bytes)",
					workers, i, len(f), ref.Len())
			}
		}
	}
}

// TestSpanTracerCoexists covers the two tracer-wiring paths: a
// user-supplied tracer recording everything keeps working (its ring and
// counts agree with the results) while the assembler rides it as an
// extra sink; and a tracer missing a kind the fold needs is rejected
// with an error naming the kind.
func TestSpanTracerCoexists(t *testing.T) {
	c := short()
	c.Scheme = "aaw"
	c.Spans = &SpanOptions{}
	tr := trace.New(100000)
	c.Trace = tr
	r := mustRun(t, c)
	if int64(tr.Count(trace.QueryDone)) != r.QueriesAnswered {
		t.Fatalf("user tracer counted %d completions, results say %d",
			tr.Count(trace.QueryDone), r.QueriesAnswered)
	}

	c2 := short()
	c2.Spans = &SpanOptions{}
	c2.Trace = trace.New(16).Only(trace.QueryStart, trace.QueryDone)
	_, err := Run(c2)
	if err == nil {
		t.Fatal("engine accepted a tracer missing span kinds")
	}
	if !strings.Contains(err.Error(), "trace kind") {
		t.Fatalf("error %q does not explain the missing kind", err)
	}
}
