package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/faults"
)

// The digest oracle. The client population replaced a process-per-client
// implementation that ran one goroutine per host; before that path was
// retired, every cell below was run on it and the digest of its Results
// recorded in testdata/equiv_digests.txt. Each test reruns its cells on
// the population and fails, naming the cell, on any digest that moved:
// a change to any counter, float or map of Results shows up here.

// equivBase is the matrix's base config: small enough that the full
// scheme × layer × seed product stays fast, long enough to exercise
// disconnection/reconnection, queries, evictions and window overruns.
func equivBase(seed uint64) Config {
	c := Default()
	c.Clients = 48
	c.SimTime = 4000
	c.MeanDisc = 400
	c.ConsistencyCheck = true
	c.Seed = seed
	return c
}

// equivLayers is the adversarial-layer axis. Each entry arms one layer
// at the severity the layer's own property tests use.
var equivLayers = []struct {
	name  string
	apply func(*Config)
}{
	{"none", func(c *Config) {}},
	{"chaos", func(c *Config) {
		c.Faults = faults.Config{
			DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1},
			UpLoss:    faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.3},
			CrashMTBF: 2000,
			CrashMTTR: 120,
			Retry:     chaosRetry(),
		}
	}},
	{"overload", func(c *Config) {
		c.Overload.UpQueueCap = 20
		c.Overload.DownQueueCap = 20
		c.Overload.QueryDeadline = 4 * c.Period
		c.Overload.ServerPendingCap = 16
		c.Overload.Coalesce = true
	}},
	{"delivery", func(c *Config) {
		c.Delivery = delivery.Severity(1)
		c.Faults.Retry = chaosRetry()
	}},
	{"churn", func(c *Config) {
		c.Churn = churn.Severity(1)
		c.Faults.Retry = chaosRetry()
	}},
}

// runCell runs c and checks it against the digest recorded for the
// test's own name.
func runCell(t *testing.T, c Config) *Results {
	t.Helper()
	r := mustRun(t, c)
	checkDigest(t, t.Name(), r)
	return r
}

// TestAggregateEquivalence is the core matrix: all seven schemes under
// every adversarial layer, at two seeds.
func TestAggregateEquivalence(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, layer := range equivLayers {
			for _, seed := range []uint64{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", scheme, layer.name, seed), func(t *testing.T) {
					c := equivBase(seed)
					c.Scheme = scheme
					layer.apply(&c)
					r := runCell(t, c)
					if r.QueriesAnswered == 0 {
						t.Fatalf("matrix cell answered no queries; the digest is vacuous")
					}
					if r.ConsistencyViolations != 0 {
						t.Fatalf("%d stale reads; first: %v", r.ConsistencyViolations, r.FirstViolation)
					}
				})
			}
		}
	}
}

// TestAggregateEquivalencePerInterval pins the per-broadcast-boundary
// disconnection ablation, whose think loop suspends differently.
func TestAggregateEquivalencePerInterval(t *testing.T) {
	for _, scheme := range []string{"aaw", "bs", "ts-check"} {
		t.Run(scheme, func(t *testing.T) {
			c := equivBase(3)
			c.Scheme = scheme
			c.DiscPerInterval = true
			runCell(t, c)
		})
	}
}

// TestAggregateEquivalenceSpans pins the span/AoI observability layer:
// the span digest and AoI percentiles are Results fields too.
func TestAggregateEquivalenceSpans(t *testing.T) {
	c := equivBase(5)
	c.Scheme = "aaw"
	c.Spans = &SpanOptions{}
	c.Overload.QueryDeadline = 4 * c.Period
	runCell(t, c)
}

// TestAggregateDeterminism: same seed, same digest, twice.
func TestAggregateDeterminism(t *testing.T) {
	c := equivBase(2)
	c.Scheme = "aaw"
	runCell(t, c)
	runCell(t, c)
}

// zeroConfig is json.Marshal(Config{}) as it encoded when the digest
// tables were recorded, before Config carried json tags and when Results
// still encoded its Config. It was generated from that Config, not
// written by hand.
func zeroConfig(t testing.TB) json.RawMessage {
	t.Helper()
	b, err := os.ReadFile("testdata/zero_config.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustDigest is Digest, failing the test on an error.
func mustDigest(t testing.TB, r *Results) string {
	t.Helper()
	d, err := Digest(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// frozenDigest is the digest the tables recorded: SHA-256 over the JSON
// encoding of r with its Config zeroed and encoded first, as Results
// encoded before Config was left out of it. Every other byte is the
// encoding Digest hashes.
func frozenDigest(t testing.TB, r *Results) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b = append(append(append([]byte(`{"Config":`), zeroConfig(t)...), ','), b[1:]...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// loadDigests reads a digest table: one "cell sha256" pair per line,
// blank lines and #-comments ignored.
func loadDigests(t testing.TB, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		table[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}

// checkDigest fails the test, naming the cell, unless r hashes to the
// digest recorded for it in testdata/equiv_digests.txt — the frozen
// oracle, recorded from the process-per-client path.
func checkDigest(t testing.TB, cell string, r *Results) {
	t.Helper()
	got := frozenDigest(t, r)
	want, ok := loadDigests(t, "testdata/equiv_digests.txt")[cell]
	if !ok {
		t.Fatalf("cell %s: no recorded digest (got %s)", cell, got)
	}
	if got != want {
		t.Fatalf("cell %s: digest %s, recorded %s", cell, got, want)
	}
}

// TestDigestCoversEveryField adds one, in place, to every numeric value
// Results encodes: each top-level counter and float, each map entry, and
// each number inside Spans, PerCell and FirstViolation. Every bump must
// move the digest, and changing the Config must not.
func TestDigestCoversEveryField(t *testing.T) {
	c := multicellConfig()
	c.Cells = 2
	c.Spans = &SpanOptions{}
	r := mustRun(t, c)
	r.FirstViolation = &Violation{Client: 1, Item: 2, Served: 3, Correct: 4, Tlb: 5}
	base := mustDigest(t, r)
	bumped := 0
	bumpEach(reflect.ValueOf(r).Elem(), "Results", func(path string) {
		bumped++
		if mustDigest(t, r) == base {
			t.Errorf("%s + 1 left the digest unchanged", path)
		}
	})
	if mustDigest(t, r) != base {
		t.Fatal("the walk did not restore the results")
	}
	if bumped < 100 || len(r.ReportsSent) == 0 || len(r.PerCell) != 2 {
		t.Fatalf("walk bumped %d values over %d report kinds and %d cells; the table is thin",
			bumped, len(r.ReportsSent), len(r.PerCell))
	}
	r.Config.Seed++
	if mustDigest(t, r) != base {
		t.Fatal("the digest depends on the Config")
	}
}

// bumpEach calls check once per numeric value reachable from v through
// encoded struct fields, pointers, slices, arrays and maps, with that
// value increased by one, and restores it afterwards.
func bumpEach(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check(path)
		v.SetInt(v.Int() - 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		check(path)
		v.SetUint(v.Uint() - 1)
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.Pointer:
		if !v.IsNil() {
			bumpEach(v.Elem(), path, check)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				bumpEach(v.Field(i), path+"."+f.Name, check)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			bumpEach(v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			old := v.MapIndex(k)
			e := reflect.New(old.Type()).Elem()
			e.Set(old)
			bumpEach(e, fmt.Sprintf("%s[%v]", path, k), func(p string) {
				v.SetMapIndex(k, e)
				check(p)
				v.SetMapIndex(k, old)
			})
		}
	}
}
