// Package faults is the deterministic fault-injection layer of the
// simulator. The paper's premise is operation through failure —
// disconnection, doze mode, and a lossy wireless link — yet its
// evaluation assumes every broadcast is heard and every uplink message
// arrives. This package supplies the missing failure models:
//
//   - a Gilbert–Elliott two-state (good/bad) channel whose per-message
//     loss and corruption probabilities depend on the current state, so
//     losses come in bursts the way real fading channels produce them
//     (independent Bernoulli loss is the degenerate one-state case);
//   - server crash/restart timing (exponential MTBF and MTTR);
//   - a capped-exponential-backoff retry policy with deterministic
//     jitter for the client's uplink exchanges.
//
// Everything draws from internal/rng streams: identical seeds produce
// identical fault sequences, so chaos runs are as reproducible as clean
// ones. A disabled model consumes no randomness at all, which keeps
// seeded results bit-identical to runs built without the fault layer.
package faults

import (
	"fmt"
	"math"

	"mobicache/internal/rng"
)

// Verdict is a per-message fault decision.
type Verdict int

// Per-message verdicts.
const (
	// Deliver: the message arrives intact.
	Deliver Verdict = iota
	// Lose: the message never arrives (deep fade, collision).
	Lose
	// Corrupt: the message arrives but fails its integrity check; the
	// receiver sees a codec decode error, never silently wrong bits.
	Corrupt
)

// String names the verdict for traces and tests.
func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "deliver"
	case Lose:
		return "lose"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// GEParams parameterizes a Gilbert–Elliott two-state channel. The chain
// steps once per message: first the state transition, then the loss and
// corruption draws under the (new) state. The zero value is a perfect
// channel that consumes no randomness.
type GEParams struct {
	// PGoodBad is the per-message probability of entering the bad
	// (bursty) state; PBadGood of leaving it. PBadGood = 1-PGoodBad = 1
	// makes states independent; small PBadGood makes long bursts.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are per-message loss probabilities in each
	// state.
	LossGood, LossBad float64
	// CorruptGood and CorruptBad are per-message corruption
	// probabilities in each state, applied after the loss draw.
	CorruptGood, CorruptBad float64
}

// Bernoulli returns the degenerate single-state model losing each
// message independently with probability p, consuming one draw per
// message (none when p is 0). Manifests that carry the retired
// report_loss_prob key replay through it.
func Bernoulli(p float64) GEParams {
	return GEParams{LossGood: p, LossBad: p}
}

// Enabled reports whether the model can ever lose or corrupt a message.
func (p GEParams) Enabled() bool {
	return p.LossGood > 0 || p.LossBad > 0 || p.CorruptGood > 0 || p.CorruptBad > 0
}

// Validate reports the first out-of-range field, naming it with the
// given prefix (e.g. "Faults.DownLoss").
func (p GEParams) Validate(name string) error {
	fields := []struct {
		field string
		v     float64
	}{
		{"PGoodBad", p.PGoodBad},
		{"PBadGood", p.PBadGood},
		{"LossGood", p.LossGood},
		{"LossBad", p.LossBad},
		{"CorruptGood", p.CorruptGood},
		{"CorruptBad", p.CorruptBad},
	}
	for _, f := range fields {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("faults: %s.%s = %v outside [0, 1]", name, f.field, f.v)
		}
	}
	if p.PGoodBad > 0 && p.PBadGood == 0 {
		return fmt.Errorf("faults: %s.PBadGood = 0 with PGoodBad > 0 (bad state would absorb)", name)
	}
	return nil
}

// GE is one Gilbert–Elliott chain instance. Give each receiver (or each
// shared channel) its own instance and randomness stream; the chain is
// not safe for concurrent use, like everything under the kernel.
type GE struct {
	p   GEParams
	src *rng.Source
	bad bool
}

// NewGE creates a chain in the good state, or nil when the model is
// disabled — callers can test against nil instead of re-checking params.
func NewGE(p GEParams, src *rng.Source) *GE {
	if !p.Enabled() {
		return nil
	}
	return &GE{p: p, src: src}
}

// Next steps the chain one message and returns its verdict. Draw order
// (transition, loss, corruption) is fixed, and draws whose probability
// is 0 are skipped entirely, so the degenerate Bernoulli model consumes
// exactly one draw per message — matching the legacy loss path.
func (g *GE) Next() Verdict {
	if g.bad {
		if g.p.PBadGood > 0 && g.src.Bool(g.p.PBadGood) {
			g.bad = false
		}
	} else {
		if g.p.PGoodBad > 0 && g.src.Bool(g.p.PGoodBad) {
			g.bad = true
		}
	}
	loss, corrupt := g.p.LossGood, g.p.CorruptGood
	if g.bad {
		loss, corrupt = g.p.LossBad, g.p.CorruptBad
	}
	if loss > 0 && g.src.Bool(loss) {
		return Lose
	}
	if corrupt > 0 && g.src.Bool(corrupt) {
		return Corrupt
	}
	return Deliver
}

// RetryPolicy is the client's uplink timeout discipline: give up on an
// outstanding exchange after a timeout that grows exponentially with the
// attempt number, capped, with deterministic jitter. The zero value is
// the legacy wait-forever behaviour.
type RetryPolicy struct {
	// Timeout is the base (first-attempt) timeout in seconds; 0 disables
	// retries entirely.
	Timeout float64
	// Backoff multiplies the timeout per attempt (2 = doubling). Values
	// below 1 are invalid; 1 means a constant timeout.
	Backoff float64
	// MaxDelay caps the grown timeout in seconds (0 = no cap).
	MaxDelay float64
	// Jitter widens each delay by a uniform factor in [1, 1+Jitter),
	// drawn from the client's own stream — deterministic per seed, but
	// decorrelating retry storms across clients. Must be in [0, 1].
	Jitter float64
	// MaxAttempts caps the backoff exponent (not the retry count: the
	// client never abandons a query, it just stops growing the delay).
	// 0 means the exponent grows without bound until MaxDelay bites.
	MaxAttempts int
}

// Enabled reports whether timeouts are active.
func (r RetryPolicy) Enabled() bool { return r.Timeout > 0 }

// Validate reports the first out-of-range field, naming it with the
// given prefix.
func (r RetryPolicy) Validate(name string) error {
	switch {
	case r.Timeout < 0 || math.IsNaN(r.Timeout):
		return fmt.Errorf("faults: %s.Timeout = %v negative", name, r.Timeout)
	case r.Timeout == 0 && (r.Backoff != 0 || r.MaxDelay != 0 || r.Jitter != 0 || r.MaxAttempts != 0):
		return fmt.Errorf("faults: %s.Timeout = 0 (disabled) with other retry fields set", name)
	case r.Timeout == 0:
		return nil
	case r.Backoff < 1:
		return fmt.Errorf("faults: %s.Backoff = %v below 1", name, r.Backoff)
	case r.MaxDelay < 0 || (r.MaxDelay > 0 && r.MaxDelay < r.Timeout):
		return fmt.Errorf("faults: %s.MaxDelay = %v below Timeout %v", name, r.MaxDelay, r.Timeout)
	case r.Jitter < 0 || r.Jitter > 1:
		return fmt.Errorf("faults: %s.Jitter = %v outside [0, 1]", name, r.Jitter)
	case r.MaxAttempts < 0:
		return fmt.Errorf("faults: %s.MaxAttempts = %v negative", name, r.MaxAttempts)
	}
	return nil
}

// Delay returns the timeout for the given attempt (0 = first try).
// Jitter draws from src only when configured, so a jitter-free policy
// consumes no randomness.
func (r RetryPolicy) Delay(attempt int, src *rng.Source) float64 {
	if r.MaxAttempts > 0 && attempt > r.MaxAttempts {
		attempt = r.MaxAttempts
	}
	d := r.Timeout * math.Pow(r.Backoff, float64(attempt))
	if r.Backoff == 0 { // uninitialized policy used directly; treat as constant
		d = r.Timeout
	}
	if r.MaxDelay > 0 && d > r.MaxDelay {
		d = r.MaxDelay
	}
	if r.Jitter > 0 {
		d *= 1 + r.Jitter*src.Float64()
	}
	return d
}

// Config gathers every fault knob of one simulation run. The zero value
// injects nothing and consumes no randomness.
type Config struct {
	// DownLoss is the per-client Gilbert–Elliott model for broadcast
	// invalidation-report reception (fading is per receiver, so every
	// client runs its own chain).
	DownLoss GEParams
	// UpLoss is the Gilbert–Elliott model for the shared uplink channel:
	// one chain per channel, stepped per completed transmission.
	UpLoss GEParams
	// CrashMTBF is the server's mean time between crashes in seconds
	// (exponential); 0 means the server never crashes.
	CrashMTBF float64
	// CrashMTTR is the mean repair time in seconds (exponential).
	// Required when CrashMTBF is set.
	CrashMTTR float64
	// Retry is the client's uplink timeout/backoff policy.
	Retry RetryPolicy
}

// Enabled reports whether any fault injection is configured.
func (c Config) Enabled() bool {
	return c.DownLoss.Enabled() || c.UpLoss.Enabled() || c.CrashMTBF > 0 || c.Retry.Enabled()
}

// Validate reports the first invalid field by name.
func (c Config) Validate() error {
	if err := c.DownLoss.Validate("Faults.DownLoss"); err != nil {
		return err
	}
	if err := c.UpLoss.Validate("Faults.UpLoss"); err != nil {
		return err
	}
	switch {
	case c.CrashMTBF < 0 || math.IsNaN(c.CrashMTBF):
		return fmt.Errorf("faults: Faults.CrashMTBF = %v negative", c.CrashMTBF)
	case c.CrashMTBF > 0 && c.CrashMTTR <= 0:
		return fmt.Errorf("faults: Faults.CrashMTTR = %v not positive with CrashMTBF set", c.CrashMTTR)
	case c.CrashMTBF == 0 && c.CrashMTTR != 0:
		return fmt.Errorf("faults: Faults.CrashMTTR = %v set without CrashMTBF", c.CrashMTTR)
	}
	return c.Retry.Validate("Faults.Retry")
}
