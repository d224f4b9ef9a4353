package mobicache_test

import (
	"bufio"
	"bytes"
	"fmt"

	"mobicache"
)

// The minimal run: Table 1's configuration with the paper's AAW scheme.
// Results are deterministic for a fixed seed, so the output is testable.
func Example() {
	cfg := mobicache.DefaultConfig()
	cfg.Scheme = "aaw"
	cfg.SimTime = 5000
	cfg.Seed = 7

	res, err := mobicache.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("answered queries:", res.QueriesAnswered > 0)
	fmt.Println("stale reads:", res.ConsistencyViolations)
	// Output:
	// answered queries: true
	// stale reads: 0
}

// Comparing two schemes under identical workloads and seeds isolates the
// invalidation method as the only difference.
func Example_compare() {
	base := mobicache.DefaultConfig()
	base.SimTime = 5000
	base.Workload = mobicache.HotCold(base.DBSize)

	var answered = map[string]int64{}
	for _, scheme := range []string{"aaw", "bs"} {
		cfg := base
		cfg.Scheme = scheme
		res, err := mobicache.Run(cfg)
		if err != nil {
			panic(err)
		}
		answered[scheme] = res.QueriesAnswered
	}
	fmt.Println("aaw beats bs:", answered["aaw"] > answered["bs"])
	// Output:
	// aaw beats bs: true
}

// The multi-cell extension: hosts migrate between stations while powered
// off, and the schemes keep their guarantees across handoffs.
func Example_multicell() {
	cfg := mobicache.DefaultConfig()
	cfg.SimTime = 5000
	cfg.MeanDisc = 400
	cfg.ProbDisc = 0.4
	cfg.ConsistencyCheck = true
	cfg.Cells = 3
	cfg.MoveProb = 0.5

	res, err := mobicache.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("handoffs happened:", res.Handoffs > 0)
	fmt.Println("stale reads:", res.ConsistencyViolations)
	// Output:
	// handoffs happened: true
	// stale reads: 0
}

// The adversary and observability layers through the public API: one
// audited run under all four adversaries (lossy links with crashes and
// retries, adversarial delivery, population churn, bounded queues),
// instrumented with a metrics timeline, a lossless JSONL event stream
// and per-query spans, then replayed from its manifest.
func Example_observe() {
	cfg := mobicache.DefaultConfig()
	cfg.Scheme = "ts-check"
	cfg.SimTime = 4000
	cfg.MeanDisc = 400
	cfg.ConsistencyCheck = true
	cfg.Faults = mobicache.FaultConfig{
		DownLoss:  mobicache.Bernoulli(0.05),
		UpLoss:    mobicache.Bernoulli(0.05),
		CrashMTBF: 3000,
		CrashMTTR: 120,
		Retry:     mobicache.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6},
	}
	cfg.Delivery = mobicache.DeliverySeverity(2)
	cfg.Churn = mobicache.ChurnSeverity(2)
	cfg.Overload = mobicache.OverloadConfig{UpQueueCap: 50, DownQueueCap: 50, QueryDeadline: 4 * cfg.Period}
	cfg.Spans = &mobicache.SpanOptions{Keep: true}

	reg := mobicache.NewMetricsRegistry()
	cfg.Metrics = reg
	var jsonl bytes.Buffer
	w := bufio.NewWriter(&jsonl)
	tr := mobicache.NewTracer(256).SetSink(mobicache.NewJSONLTraceSink(w))
	cfg.Trace = tr

	res, err := mobicache.Run(cfg)
	if err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	fmt.Println("stale reads:", res.ConsistencyViolations)

	// The kept spans export as Perfetto-loadable trace-event JSON.
	var spans bytes.Buffer
	if err := res.Spans.WriteTrace(&spans); err != nil {
		panic(err)
	}
	n, err := mobicache.ValidateSpanTrace(&spans)
	if err != nil {
		panic(err)
	}
	fmt.Println("span events:", n > 0)

	// Replaying the manifest's config lands on the digest it records.
	var file bytes.Buffer
	if err := mobicache.NewManifest(res).WriteJSON(&file); err != nil {
		panic(err)
	}
	m, err := mobicache.ReadManifest(&file)
	if err != nil {
		panic(err)
	}
	replayCfg, err := m.EngineConfig()
	if err != nil {
		panic(err)
	}
	replay, err := mobicache.Run(replayCfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("replay verified:", m.VerifyReplay(replay) == nil)

	// The ring kept 256 events; the sink streamed every one.
	lines := bytes.Count(jsonl.Bytes(), []byte{'\n'})
	fmt.Println("every event streamed:", uint64(lines) == tr.Total())
	fmt.Println("timeline samples:", reg.Len())
	// Output:
	// stale reads: 0
	// span events: true
	// replay verified: true
	// every event streamed: true
	// timeline samples: 200
}
