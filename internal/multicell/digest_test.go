package multicell

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// digestVariants are the multi-cell axes the digest table covers: no
// mobility, the default 30%, every disconnection a handoff, and the
// degenerate single cell.
var digestVariants = []struct {
	name  string
	apply func(*Config)
}{
	{"move0", func(c *Config) { c.MoveProb = 0 }},
	{"move0.3", func(c *Config) { c.MoveProb = 0.3 }},
	{"move1", func(c *Config) { c.MoveProb = 1 }},
	{"cells1", func(c *Config) { c.Cells = 1; c.MoveProb = 0.5 }},
}

// TestMulticellDigests pins every multi-cell result bit for bit: each
// scheme under each mobility variant, plus the configs of the
// capacity and mobility-cost tests, must hash to the digest recorded in
// testdata/digests.txt from the process-per-client path. The digest is
// SHA-256 over the JSON of every Results field except Config (its
// workload holds funcs).
func TestMulticellDigests(t *testing.T) {
	table := loadDigests(t, "testdata/digests.txt")
	check := func(t *testing.T, c Config) {
		r := mustRun(t, c)
		r.Config = Config{}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		want, ok := table[t.Name()]
		if !ok {
			t.Fatalf("cell %s: no recorded digest (got %s)", t.Name(), got)
		}
		if got != want {
			t.Fatalf("cell %s: digest %s, recorded %s", t.Name(), got, want)
		}
	}
	for _, scheme := range []string{"ts", "ts-check", "bs", "afw", "aaw", "sig"} {
		for _, v := range digestVariants {
			t.Run(scheme+"/"+v.name, func(t *testing.T) {
				c := shortConfig()
				c.Base.Scheme = scheme
				v.apply(&c)
				check(t, c)
			})
		}
	}
	t.Run("capacity", func(t *testing.T) {
		c := shortConfig()
		c.Base.ProbDisc = 0.1
		check(t, c)
	})
	t.Run("mobility-cost", func(t *testing.T) {
		c := shortConfig()
		c.Base.Scheme = "aaw"
		c.Base.MeanDisc = 1000
		c.MoveProb = 1
		check(t, c)
	})
}

// loadDigests reads a digest table: one "cell sha256" pair per line,
// blank lines and #-comments ignored.
func loadDigests(t *testing.T, path string) map[string]string {
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
