// Package mobicache reproduces "Adaptive Cache Invalidation Methods in
// Mobile Environments" (Qinglong Hu and Dik Lun Lee, HPDC 1997): a
// discrete-event simulation of broadcast-based cache invalidation in a
// wireless cell, the four invalidation schemes the paper evaluates — bit
// sequences (BS), timestamps with checking (ts-check), and the adaptive
// AFW and AAW methods — plus the TS and AT building blocks, and a harness
// regenerating every figure of the paper's evaluation.
//
// This file is the public facade: everything needed to configure and run
// simulations without importing the internal packages.
//
//	cfg := mobicache.DefaultConfig()          // Table 1
//	cfg.Scheme = "aaw"
//	cfg.Workload = mobicache.HotCold(cfg.DBSize)
//	res, err := mobicache.Run(cfg)
//
// Setting cfg.Cells above 1 runs the multi-cell extension: one station
// per cell, with hosts moving between cells (cfg.MoveProb) while
// powered off.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package mobicache

import (
	"io"
	"sort"

	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/overload"
	"mobicache/internal/span"
	"mobicache/internal/trace"
	"mobicache/internal/workload"
)

// Config describes one simulation run; see engine.Config for field
// documentation. DefaultConfig returns the paper's Table 1 settings.
type Config = engine.Config

// Results aggregates the metrics of one run.
type Results = engine.Results

// Workload bundles query/update access patterns and operation sizes.
type Workload = workload.Workload

// DefaultConfig returns Table 1's configuration with the UNIFORM workload.
func DefaultConfig() Config { return engine.Default() }

// Run executes one simulation and audits it; a run that fails its audit
// returns its Results together with the error.
func Run(c Config) (*Results, error) { return engine.Run(c) }

// Uniform is the paper's UNIFORM workload over an n-item database.
func Uniform(n int) Workload { return workload.Uniform(n) }

// HotCold is the paper's HOTCOLD workload: 80% of queries to items 1..100.
func HotCold(n int) Workload { return workload.HotCold(n) }

// Zipf is the extension workload with Zipf(theta)-skewed queries.
func Zipf(n int, theta float64) Workload { return workload.Zipf(n, theta) }

// Schemes lists the available invalidation scheme names, sorted.
func Schemes() []string {
	names := core.Names()
	sort.Strings(names)
	return names
}

// FaultConfig configures the deterministic fault-injection layer
// (Config.Faults): bursty Gilbert–Elliott loss/corruption on both links,
// server crash/restart, and the client uplink retry policy. The zero
// value injects nothing and keeps seeded results bit-identical to
// fault-free runs.
type FaultConfig = faults.Config

// GEParams parameterizes a Gilbert–Elliott two-state loss/corruption
// channel (FaultConfig.DownLoss / UpLoss).
type GEParams = faults.GEParams

// RetryPolicy is the client uplink timeout/backoff discipline
// (FaultConfig.Retry).
type RetryPolicy = faults.RetryPolicy

// Bernoulli is the degenerate single-state loss model: each message lost
// independently with probability p.
func Bernoulli(p float64) GEParams { return faults.Bernoulli(p) }

// OverloadConfig configures the graceful-degradation layer
// (Config.Overload): bounded channel queues with deterministic tail-drop,
// client query deadlines, and server fetch admission control with
// optional same-item coalescing. The zero value disables every mechanism
// and keeps seeded results bit-identical to unguarded runs; any queue or
// pending cap requires a recovery path (a query deadline or an uplink
// retry policy), which Config.Validate enforces.
type OverloadConfig = overload.Config

// DeliveryConfig configures the adversarial delivery layer
// (Config.Delivery): per-link delay jitter, bounded reordering,
// duplication, asymmetric partitions with scheduled heal, and per-client
// clock skew/drift with the staleness bound ε. The zero value perturbs
// nothing and keeps seeded results bit-identical to unperturbed runs; an
// enabled layer requires a recovery path (an uplink retry policy or a
// query deadline), which Config.Validate enforces. See DESIGN.md §13 for
// the sequence-fencing contract.
type DeliveryConfig = delivery.Config

// DeliverySeverity maps a scalar severity level (0 = off, 4 = hardest)
// to a delivery configuration exercising every adversarial mechanism at
// once; it parameterizes the ext-delivery robustness sweep.
func DeliverySeverity(level float64) DeliveryConfig { return delivery.Severity(level) }

// ChurnConfig configures the population-churn adversary (Config.Churn):
// correlated mass-disconnect storms with flash-crowd reconnection,
// client crash/restart with a persisted cache snapshot subject to
// staleness/corruption faults, and seeded per-client resync pacing. The
// zero value schedules nothing and keeps seeded results bit-identical to
// churn-free runs; an enabled layer requires a recovery path (an uplink
// retry policy or a query deadline), which Config.Validate enforces. See
// DESIGN.md §15 for the snapshot trust contract.
type ChurnConfig = churn.Config

// ChurnSeverity maps a scalar severity level (0 = off, 4 = hardest) to a
// churn configuration exercising storms, crash/restart and snapshot
// faults at once; it parameterizes the ext-churn robustness sweep.
func ChurnSeverity(level float64) ChurnConfig { return churn.Severity(level) }

// MetricsRegistry collects named instruments sampled once per broadcast
// interval into a per-run timeline (Config.Metrics). Sampling rides the
// engine's existing per-period tick: enabling it schedules no extra
// events and draws no randomness, so seeded results stay bit-identical.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry creates an empty timeline registry; assign it to
// Config.Metrics before Run and render it with WriteCSV afterwards.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// Tracer is the bounded protocol-event ring (Config.Trace).
type Tracer = trace.Tracer

// NewTracer creates a tracer retaining up to the last n events; n is a
// capacity hint, memory grows with events actually recorded.
func NewTracer(n int) *Tracer { return trace.New(n) }

// NewJSONLTraceSink streams every recorded event to w as one JSON object
// per line; install it with Tracer.SetSink for lossless export beyond
// the retained ring.
func NewJSONLTraceSink(w io.Writer) trace.Sink { return trace.NewJSONLSink(w) }

// SpanOptions arms the per-query causal-span and age-of-information
// observability layer (Config.Spans): each issued query is assembled
// into one terminal span with its latency decomposed into protocol
// phases, and every answered item contributes an AoI sample. Assembly
// is a pure fold over the trace stream — enabling it leaves seeded
// results bit-identical. Keep mode retains every span for trace-event
// export with SpanSummary.WriteTrace. See DESIGN.md §14.
type SpanOptions = engine.SpanOptions

// SpanSummary is the assembled span digest of a run (Results.Spans):
// terminal-outcome counts, phase-decomposition percentiles, and — in
// Keep mode — the raw spans, exportable as Perfetto-loadable
// Chrome trace-event JSON via WriteTrace.
type SpanSummary = span.Summary

// ValidateSpanTrace checks that r parses as trace-event JSON with the
// schema Perfetto requires, returning the event count.
func ValidateSpanTrace(r io.Reader) (int, error) { return span.ValidateTrace(r) }

// Manifest is the reproducibility record of one run: its config, the
// digest of its results, and the kernel's self-profile (see
// engine.Manifest).
type Manifest = engine.Manifest

// NewManifest builds the manifest of a completed run.
func NewManifest(r *Results) *Manifest { return engine.NewManifest(r) }

// ReadManifest parses a manifest previously written with WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) { return engine.ReadManifest(r) }
