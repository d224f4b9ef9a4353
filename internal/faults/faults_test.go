package faults

import (
	"math"
	"strings"
	"testing"

	"mobicache/internal/rng"
)

func TestBernoulliMatchesLegacyDrawSequence(t *testing.T) {
	// The degenerate model must consume exactly the draws the retired
	// per-report loss knob consumed: one Bool(p) per message.
	p := 0.3
	legacy := rng.New(42)
	ge := NewGE(Bernoulli(p), rng.New(42))
	for i := 0; i < 10000; i++ {
		want := Deliver
		if legacy.Bool(p) {
			want = Lose
		}
		if got := ge.Next(); got != want {
			t.Fatalf("message %d: verdict %v, legacy draw says %v", i, got, want)
		}
	}
}

func TestDisabledModelIsNil(t *testing.T) {
	if ge := NewGE(GEParams{}, rng.New(1)); ge != nil {
		t.Fatal("zero params should produce a nil (disabled) chain")
	}
	if ge := NewGE(Bernoulli(0), rng.New(1)); ge != nil {
		t.Fatal("Bernoulli(0) should be disabled")
	}
}

func TestGEBurstiness(t *testing.T) {
	// With sticky states, losses must cluster: the conditional loss rate
	// after a loss should far exceed the marginal rate.
	p := GEParams{PGoodBad: 0.01, PBadGood: 0.1, LossGood: 0, LossBad: 0.5}
	ge := NewGE(p, rng.New(7))
	const n = 200000
	losses, afterLoss, lossPairs := 0, 0, 0
	prevLost := false
	for i := 0; i < n; i++ {
		lost := ge.Next() == Lose
		if lost {
			losses++
		}
		if prevLost {
			afterLoss++
			if lost {
				lossPairs++
			}
		}
		prevLost = lost
	}
	marginal := float64(losses) / n
	conditional := float64(lossPairs) / float64(afterLoss)
	if marginal <= 0 || conditional < 4*marginal {
		t.Fatalf("losses not bursty: marginal %.4f, after-loss %.4f", marginal, conditional)
	}
}

func TestGEDeterministic(t *testing.T) {
	p := GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0.01, LossBad: 0.4, CorruptBad: 0.1}
	a := NewGE(p, rng.New(99))
	b := NewGE(p, rng.New(99))
	for i := 0; i < 5000; i++ {
		if va, vb := a.Next(), b.Next(); va != vb {
			t.Fatalf("message %d: %v vs %v with identical seeds", i, va, vb)
		}
	}
}

func TestRetryDelayGrowthAndCap(t *testing.T) {
	r := RetryPolicy{Timeout: 10, Backoff: 2, MaxDelay: 55}
	src := rng.New(1)
	want := []float64{10, 20, 40, 55, 55}
	for i, w := range want {
		if got := r.Delay(i, src); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", i, got, w)
		}
	}
	capped := RetryPolicy{Timeout: 10, Backoff: 2, MaxAttempts: 2}
	if got := capped.Delay(9, src); got != 40 {
		t.Fatalf("MaxAttempts cap: delay %v, want 40", got)
	}
}

func TestRetryDelayJitterDeterministic(t *testing.T) {
	r := RetryPolicy{Timeout: 10, Backoff: 2, MaxDelay: 300, Jitter: 0.25}
	a, b := rng.New(5), rng.New(5)
	var seqA, seqB []float64
	for i := 0; i < 20; i++ {
		seqA = append(seqA, r.Delay(i, a))
		seqB = append(seqB, r.Delay(i, b))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("attempt %d: jittered delays differ for one seed: %v vs %v", i, seqA[i], seqB[i])
		}
		base := 10 * math.Pow(2, float64(i))
		if base > 300 {
			base = 300
		}
		if seqA[i] < base || seqA[i] >= base*1.25 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, seqA[i], base, base*1.25)
		}
	}
	other := rng.New(6)
	differs := false
	for i := 0; i < 20; i++ {
		if r.Delay(i, other) != seqA[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("jitter ignored the stream: different seeds gave identical delays")
	}
}

func TestJitterFreePolicyConsumesNoRandomness(t *testing.T) {
	r := RetryPolicy{Timeout: 10, Backoff: 2}
	src := rng.New(3)
	before := src.Uint64()
	src = rng.New(3)
	for i := 0; i < 5; i++ {
		r.Delay(i, src)
	}
	if got := src.Uint64(); got != before {
		t.Fatal("jitter-free Delay consumed randomness")
	}
}

func TestValidateNamesOffendingField(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{DownLoss: GEParams{LossBad: 1.5}}, "Faults.DownLoss.LossBad"},
		{Config{DownLoss: GEParams{PGoodBad: -0.1}}, "Faults.DownLoss.PGoodBad"},
		{Config{DownLoss: GEParams{PGoodBad: 0.1}}, "Faults.DownLoss.PBadGood"},
		{Config{UpLoss: GEParams{CorruptGood: 2}}, "Faults.UpLoss.CorruptGood"},
		{Config{CrashMTBF: -1}, "Faults.CrashMTBF"},
		{Config{CrashMTBF: 100}, "Faults.CrashMTTR"},
		{Config{CrashMTTR: 5}, "Faults.CrashMTTR"},
		{Config{Retry: RetryPolicy{Timeout: -1}}, "Faults.Retry.Timeout"},
		{Config{Retry: RetryPolicy{Backoff: 2}}, "Faults.Retry.Timeout"},
		{Config{Retry: RetryPolicy{Timeout: 10, Backoff: 0.5}}, "Faults.Retry.Backoff"},
		{Config{Retry: RetryPolicy{Timeout: 10, Backoff: 2, MaxDelay: 5}}, "Faults.Retry.MaxDelay"},
		{Config{Retry: RetryPolicy{Timeout: 10, Backoff: 2, Jitter: 1.5}}, "Faults.Retry.Jitter"},
		{Config{Retry: RetryPolicy{Timeout: 10, Backoff: 2, MaxAttempts: -2}}, "Faults.Retry.MaxAttempts"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Fatalf("config %+v: expected error naming %s", c.cfg, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("config %+v: error %q does not name %s", c.cfg, err, c.want)
		}
	}
	good := Config{
		DownLoss:  GEParams{PGoodBad: 0.05, PBadGood: 0.25, LossBad: 0.4},
		UpLoss:    Bernoulli(0.1),
		CrashMTBF: 5000, CrashMTTR: 60,
		Retry: RetryPolicy{Timeout: 60, Backoff: 2, MaxDelay: 480, Jitter: 0.1, MaxAttempts: 5},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if !good.Enabled() {
		t.Fatal("configured faults not reported enabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reported enabled")
	}
}
