package exp

import (
	"fmt"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/overload"
	"mobicache/internal/workload"
)

// Extension experiments beyond the paper's evaluation: ablations of the
// design choices DESIGN.md calls out, and studies of the SIG scheme and
// skewed workloads. They use the same sweep/figure machinery, so
// cmd/experiments can render and export them identically.

// AllSchemes includes the §2 building blocks and the SIG extension.
var AllSchemes = []string{"aaw", "afw", "ts-check", "bs", "ts", "at", "sig"}

// ExtensionSweeps are the run families behind the extension figures.
var ExtensionSweeps = map[string]*Sweep{
	// Window-size ablation: the fixed window w is the knob the paper's
	// whole motivation turns on — too small drops caches, too large
	// bloats every report.
	"ext-window": {
		ID: "ext-window", XLabel: "Window w (intervals)",
		Xs:      []float64{2, 5, 10, 20, 40, 80},
		Schemes: []string{"aaw", "afw", "ts-check", "ts"},
		Configure: func(x float64) engine.Config {
			c := base()
			c.WindowIntervals = int(x)
			c.ProbDisc = 0.2
			c.MeanDisc = 1000
			return c
		},
	},
	// Sleeper stress: mean disconnection length far past the window,
	// where the schemes' salvage machinery differs most.
	"ext-sleepers": {
		ID: "ext-sleepers", XLabel: "Mean Disconnection Time (s)",
		Xs:      []float64{1000, 2000, 4000, 8000, 16000},
		Schemes: AllSchemes,
		Configure: func(x float64) engine.Config {
			c := base()
			c.ProbDisc = 0.3
			c.MeanDisc = x
			return c
		},
	},
	// Query skew: Zipf exponent sweep (theta 0 is uniform).
	"ext-zipf": {
		ID: "ext-zipf", XLabel: "Zipf theta",
		Xs: []float64{0, 0.4, 0.8, 0.95, 1.2},
		Configure: func(x float64) engine.Config {
			c := base()
			c.Workload = workload.Zipf(c.DBSize, x)
			c.MeanDisc = 400
			return c
		},
	},
	// Disconnection-model ablation: the per-broadcast-boundary reading
	// of Table 1's "prob. of client disc. per interval".
	"ext-discmodel": {
		ID: "ext-discmodel", XLabel: "Probability of Disconnection",
		Xs: probs(),
		Configure: func(x float64) engine.Config {
			c := base()
			c.DiscPerInterval = true
			c.ProbDisc = x
			c.MeanDisc = 400
			return c
		},
	},
	// Broadcast-period ablation: L trades report freshness against
	// overhead and query latency.
	"ext-period": {
		ID: "ext-period", XLabel: "Broadcast Period L (s)",
		Xs: []float64{5, 10, 20, 40, 80},
		Configure: func(x float64) engine.Config {
			c := base()
			c.Period = x
			c.MeanDisc = 400
			return c
		},
	},
}

// ChaosFaults maps a chaos level (0..4) to a compound fault configuration.
// Level 0 is fault-free; each step up makes downlink/uplink loss bursts
// hotter (Gilbert–Elliott bad-state loss and corruption probabilities) and
// server crashes more frequent. Level 4 is the hardest validated setting:
// half the bad-state downlink traffic lost, a tenth corrupted, crashes
// every ~1500 s. The retry policy is always on — without timeouts a fetch
// swallowed by a dead server would hang its client forever.
func ChaosFaults(level float64) faults.Config {
	f := faults.Config{Retry: adversaryRetry}
	if level <= 0 {
		return f
	}
	f.DownLoss = faults.GEParams{
		PGoodBad:   0.05,
		PBadGood:   0.2,
		LossBad:    0.125 * level,
		CorruptBad: 0.025 * level,
	}
	f.UpLoss = faults.GEParams{
		PGoodBad: 0.05,
		PBadGood: 0.2,
		LossBad:  0.075 * level,
	}
	f.CrashMTBF = 6000 / level
	f.CrashMTTR = 120
	return f
}

// adversaryRetry is the fetch retry policy of every adversarySweeps row:
// without timeouts a fetch swallowed by a dead server, a partition or a
// client crash would hang its client forever.
var adversaryRetry = faults.RetryPolicy{
	Timeout:     240,
	Backoff:     2,
	MaxDelay:    1920,
	Jitter:      0.2,
	MaxAttempts: 6,
}

// collapseCheck is the acceptance bar the adversary sweeps (ext-chaos,
// ext-overload, ext-delivery, ext-churn and ext-aoi) add to the audit
// engine.Run applies to every run (zero stale reads and every accounting
// identity): work must still complete however hard the adversary hits.
func collapseCheck(r *engine.Results) error {
	if r.QueriesAnswered == 0 {
		return fmt.Errorf("%s collapsed (nothing answered)", r.Config.Scheme)
	}
	return nil
}

// OverloadGuardrails is the degradation layer every ext-overload run
// carries: bounded channel queues, a deadline of four broadcast periods,
// and a coalescing pending table sized to the client population.
func OverloadGuardrails(c *engine.Config) {
	c.Overload = overload.Config{
		UpQueueCap:       50,
		DownQueueCap:     50,
		QueryDeadline:    4 * c.Period,
		ServerPendingCap: 64,
		Coalesce:         true,
	}
}

// adversarySweeps are the audited robustness families that share one
// base: all seven schemes, occasional disconnections (ProbDisc 0.1,
// MeanDisc 400), the stale-read checker armed, and collapseCheck on
// every run. Each row layers one adversary onto that base, scaled by x.
var adversarySweeps = []struct {
	id, label string
	xs        []float64
	apply     func(c *engine.Config, x float64)
}{
	// Chaos: compound bursty loss + corruption + server crash/restart,
	// jointly scaled by the chaos level.
	{"ext-chaos", "Chaos Level (burst loss x crash rate)", []float64{0, 1, 2, 3, 4},
		func(c *engine.Config, x float64) { c.Faults = ChaosFaults(x) }},
	// Adversarial delivery: reordering, duplication, delay jitter,
	// asymmetric partitions and clock skew/drift, jointly scaled by
	// delivery.Severity. Level 1 already reorders past the broadcast
	// period, so the sequence fence works at every enabled level.
	{"ext-delivery", "Delivery Severity (reorder x dup x partition x skew)", []float64{0, 1, 2, 3, 4},
		func(c *engine.Config, x float64) {
			c.Faults.Retry = adversaryRetry
			c.Delivery = delivery.Severity(x)
		}},
	// Population churn: mass-disconnect storms with flash-crowd
	// reconnection, crash/restart with persisted-snapshot staleness and
	// corruption faults, and paced resync, jointly scaled by
	// churn.Severity.
	{"ext-churn", "Churn Severity (storm x crash x snapshot faults)", []float64{0, 1, 2, 3, 4},
		func(c *engine.Config, x float64) {
			c.Faults.Retry = adversaryRetry
			c.Churn = churn.Severity(x)
		}},
	// Observability: the span/AoI layer armed across the chaos ladder,
	// with both span accounting identities enforced by the audit.
	{"ext-aoi", "Chaos Level (burst loss x crash rate)", []float64{0, 1, 2, 3},
		func(c *engine.Config, x float64) {
			c.Faults = ChaosFaults(x)
			c.Spans = &engine.SpanOptions{}
		}},
}

func init() {
	for _, a := range adversarySweeps {
		ExtensionSweeps[a.id] = &Sweep{
			ID: a.id, XLabel: a.label,
			Xs:      a.xs,
			Schemes: AllSchemes,
			Configure: func(x float64) engine.Config {
				c := base()
				c.ProbDisc = 0.1
				c.MeanDisc = 400
				c.ConsistencyCheck = true
				a.apply(&c, x)
				return c
			},
			Check: collapseCheck,
		}
	}
	// Overload/soak sweep: offered query load at 1x..8x the uplink's
	// fetch-request capacity, with the full degradation layer on and the
	// stale-read checker armed. The x axis is the load multiple: think
	// time is set so the population's aggregate fetch-request demand is x
	// times what the uplink can carry; disconnection is kept rare so the
	// query stream dominates. Past saturation the system must shed and
	// time out deterministically, never queue unboundedly or deadlock.
	ExtensionSweeps["ext-overload"] = &Sweep{
		ID: "ext-overload", XLabel: "Offered Load (x uplink capacity)",
		Xs:      []float64{1, 2, 4, 8},
		Schemes: AllSchemes,
		Configure: func(x float64) engine.Config {
			c := base()
			c.ConsistencyCheck = true
			c.ProbDisc = 0.05
			c.MeanDisc = 400
			// Aggregate fetch-request demand Clients*ControlMsgBits/think
			// equals x times UplinkBps at this think time.
			c.MeanThink = float64(c.Clients) * c.ControlMsgBits / (c.UplinkBps * x)
			OverloadGuardrails(&c)
			return c
		},
		Check: collapseCheck,
	}
	Extensions = append(Extensions,
		Figure{ID: "ext-aoi", Title: "OBSERVABILITY: answer AoI p95 vs compound fault intensity", Sweep: ExtensionSweeps["ext-aoi"], Metric: AoIP95},
		Figure{ID: "ext-delivery-thr", Title: "ROBUSTNESS: throughput vs adversarial delivery severity", Sweep: ExtensionSweeps["ext-delivery"], Metric: Throughput},
		Figure{ID: "ext-delivery-upl", Title: "ROBUSTNESS: uplink cost vs adversarial delivery severity", Sweep: ExtensionSweeps["ext-delivery"], Metric: UplinkPerQuery},
		Figure{ID: "ext-churn-thr", Title: "ROBUSTNESS: throughput vs population churn severity", Sweep: ExtensionSweeps["ext-churn"], Metric: Throughput},
		Figure{ID: "ext-churn-upl", Title: "ROBUSTNESS: uplink cost vs population churn severity", Sweep: ExtensionSweeps["ext-churn"], Metric: UplinkPerQuery},
		Figure{ID: "ext-chaos-thr", Title: "ROBUSTNESS: throughput vs compound fault intensity", Sweep: ExtensionSweeps["ext-chaos"], Metric: Throughput},
		Figure{ID: "ext-chaos-upl", Title: "ROBUSTNESS: uplink cost vs compound fault intensity", Sweep: ExtensionSweeps["ext-chaos"], Metric: UplinkPerQuery},
		Figure{ID: "ext-overload-thr", Title: "ROBUSTNESS: goodput vs offered load past saturation", Sweep: ExtensionSweeps["ext-overload"], Metric: Throughput},
		Figure{ID: "ext-overload-upl", Title: "ROBUSTNESS: uplink cost vs offered load past saturation", Sweep: ExtensionSweeps["ext-overload"], Metric: UplinkPerQuery},
	)
}

// Extensions are rendered like figures; IDs are stable names rather than
// paper numbers.
var Extensions = []Figure{
	{ID: "ext-window-thr", Title: "ABLATION: throughput vs window size", Sweep: ExtensionSweeps["ext-window"], Metric: Throughput},
	{ID: "ext-window-upl", Title: "ABLATION: uplink cost vs window size", Sweep: ExtensionSweeps["ext-window"], Metric: UplinkPerQuery},
	{ID: "ext-sleepers-thr", Title: "EXTENSION: throughput vs sleep length, all schemes", Sweep: ExtensionSweeps["ext-sleepers"], Metric: Throughput},
	{ID: "ext-zipf-thr", Title: "EXTENSION: throughput vs query skew", Sweep: ExtensionSweeps["ext-zipf"], Metric: Throughput},
	{ID: "ext-discmodel-thr", Title: "ABLATION: per-interval disconnection model", Sweep: ExtensionSweeps["ext-discmodel"], Metric: Throughput},
	{ID: "ext-period-thr", Title: "ABLATION: throughput vs broadcast period", Sweep: ExtensionSweeps["ext-period"], Metric: Throughput},
}

// ExtensionByID finds an extension figure definition.
func ExtensionByID(id string) (Figure, error) {
	for _, f := range Extensions {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, errUnknown(id)
}

func errUnknown(id string) error {
	return &unknownFigureError{id: id}
}

type unknownFigureError struct{ id string }

func (e *unknownFigureError) Error() string { return "exp: unknown figure " + e.id }
