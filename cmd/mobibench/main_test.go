package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mobicache/internal/analyzers"
	"mobicache/internal/analyzers/framework"
	"mobicache/internal/core"
	"mobicache/internal/engine"
	"mobicache/internal/exp"
	"mobicache/internal/rng"
	"mobicache/internal/span"
)

const specPath = "../../BENCHMARK.json"

func loadSpec(t *testing.T) spec {
	t.Helper()
	var sp struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	return sp.spec
}

// TestEveryWorkloadPrintsEveryMetric runs both passes of every workload,
// shrunk, and checks that each metric BENCHMARK.json names is
// printed with its unit and is exactly the content of the final JSON line.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	sp := loadSpec(t)
	type nameUnit struct{ name, unit string }
	var e2e, layers []nameUnit
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, nameUnit{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, nameUnit{m.Name, m.Unit})
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			p := &pass{w: tiny(w), seed: rng.DeriveSeed(7, 0), reference: func() float64 { return refNominal }}
			var out, errOut bytes.Buffer
			if code := runPass(p, traced, &out, &errOut); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.name, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: result %+v", w.name, traced, res)
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s: result line has %s = %+v, want unit %s", w.name, m.name, got, m.unit)
				}
				row := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.name) + ` +` +
					regexp.QuoteMeta(m.name) + ` +\S+ +` + regexp.QuoteMeta(m.unit) + `\b`)
				if !row.MatchString(out.String()) {
					t.Errorf("%s: no table row for %s in %s", w.name, m.name, m.unit)
				}
			}
		}
	}
}

// tiny shrinks w to ten clients per config and three broadcast periods.
func tiny(w *benchWorkload) *benchWorkload {
	cp := *w
	shrink := func(c engine.Config) engine.Config {
		c.Clients = 10
		c.SimTime = 1.5 * setupSimTime
		return c
	}
	if w.sweeps != nil {
		cp.simTime = 1.5 * setupSimTime
		cp.sweeps = nil
		for _, s := range w.sweeps {
			s2 := *s
			s2.Configure = func(x float64) engine.Config { return shrink(s.Configure(x)) }
			cp.sweeps = append(cp.sweeps, &s2)
		}
		return &cp
	}
	cp.configs = func(seed uint64) []engine.Config {
		cs := w.configs(seed)
		for i := range cs {
			cs[i] = shrink(cs[i])
		}
		return cs
	}
	return &cp
}

// TestTimedSchemesTransparent runs every scheme under compound faults,
// including server crashes, on both client representations, bare and
// through the traced wrappers: the digests must be equal, which needs the
// wrapper to forward OnServerCrash.
func TestTimedSchemesTransparent(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		for _, scheme := range exp.AllSchemes {
			c := engine.Default()
			c.Scheme = scheme
			c.Clients = 20
			// A one-period window makes nearly every reconnection send
			// feedback, so crashes find the adaptive servers' pending
			// feedback non-empty and an unforwarded crash changes afw.
			c.WindowIntervals = 1
			c.SimTime = 12000
			c.MeanDisc = 400
			c.Faults = exp.ChaosFaults(2)
			c.Aggregate = aggregate
			c.ConsistencyCheck = true
			c.Seed = rng.DeriveSeed(3, 0)
			bare, err := engine.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if bare.ServerCrashes == 0 {
				t.Fatalf("%s: no server crash; the forwarding is not exercised", scheme)
			}
			tr := &tracer{}
			var wrapped *engine.Results
			if err := tr.withTimedSchemes(func() (err error) {
				wrapped, err = engine.Run(tr.configure(c))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			tr.finish(wrapped)
			if tr.handleReport.calls.Load() == 0 || tr.buildReport.calls.Load() == 0 || len(tr.cells) != 1 {
				t.Fatalf("%s: the wrappers saw no calls", scheme)
			}
			for _, r := range []*engine.Results{bare, wrapped} {
				if err := audit(r); err != nil {
					t.Fatal(err)
				}
			}
			db, err1 := digest(bare)
			dw, err2 := digest(wrapped)
			if err1 != nil || err2 != nil || db != dw {
				t.Errorf("%s aggregate=%v: bare digest %.12s, wrapped %.12s (%v, %v)", scheme, aggregate, db, dw, err1, err2)
			}
		}
	}
}

func TestRegistryRestoredAfterPanic(t *testing.T) {
	names := core.Names()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run did not panic")
			}
		}()
		_ = (&tracer{}).withTimedSchemes(func() error {
			if _, ok := core.Registry["aaw"].(timedScheme); !ok {
				t.Error("aaw is not wrapped during the run")
			}
			panic("boom")
		})
	}()
	if got := core.Names(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("registry holds %v after the panic, want %v", got, names)
	}
	for name, s := range core.Registry {
		if _, ok := s.(timedScheme); ok {
			t.Errorf("%s is still wrapped after the panic", name)
		}
	}
}

// TestAuditRejects checks that each audited identity fails a run that
// breaks it, and that a determinism mismatch counts as a failed run.
func TestAuditRejects(t *testing.T) {
	c := engine.Default()
	c.Clients = 10
	c.SimTime = 2000
	c.ConsistencyCheck = true
	good, err := engine.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit(good); err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(r *engine.Results){
		"unarmed":     func(r *engine.Results) { r.Config.ConsistencyCheck = false },
		"stale":       func(r *engine.Results) { r.ConsistencyViolations = 1 },
		"issued":      func(r *engine.Results) { r.QueriesIssued++ },
		"disconnects": func(r *engine.Results) { r.StormDisconnects++ },
		"crashes":     func(r *engine.Results) { r.ClientCrashes++ },
		"span residual": func(r *engine.Results) {
			r.Spans = &span.Summary{Answered: r.QueriesAnswered, TimedOut: r.QueriesTimedOut,
				Shed: r.QueriesShed, Open: r.QueriesInFlight, MaxResidual: 1e-3}
		},
	} {
		r := *good
		breakIt(&r)
		if audit(&r) == nil {
			t.Errorf("%s: audit accepted a broken run", name)
		}
	}
	want := []string{}
	if n, err := checkRep([]*engine.Results{good}, &want); n != 0 || err != nil {
		t.Fatalf("first rep: %d, %v", n, err)
	}
	other := *good
	other.QueriesAnswered++
	other.QueriesIssued++
	if n, err := checkRep([]*engine.Results{&other}, &want); n != 1 || err == nil {
		t.Fatalf("a changed result passed the determinism check: %d, %v", n, err)
	}
}

// TestCompareVerdicts pins the comparison rule and the quartiles, which
// follow Python's statistics.quantiles(xs, n=4).
func TestCompareVerdicts(t *testing.T) {
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Fatalf("relIQR = %v", got)
	}
	steady := func(v float64) metric { return metric{Value: v, Samples: []float64{v, v, v}} }
	run := bound{Name: "run_s", Better: "lower", Bound: 0.1}
	exactB := bound{Name: "sim_queries", Bound: -1}
	for _, c := range []struct {
		b            bound
		base, change metric
		want         string
	}{
		{run, steady(1), steady(1.05), "unchanged"},
		{run, steady(1), steady(1.2), "worse"},
		{run, steady(1), steady(0.8), "better"},
		{run, steady(1), metric{Value: 1, Samples: []float64{0.5, 1, 1.5, 2}}, "unresolved"},
		{bound{Name: "x", Better: "higher", Bound: 0.1}, steady(1), steady(0.8), "worse"},
		{exactB, steady(100), steady(100), "unchanged"},
		{exactB, steady(100), steady(101), "changed"},
	} {
		if got := verdict(c.b, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.b.Name, c.base.Value, c.change.Value, got, c.want)
		}
	}

	dir := t.TempDir()
	rec := func(runS float64) resultFile {
		r := record{Workload: "w", Runs: 1}
		r.add("setup_s", "s", 1, "", 1, 1)
		r.add("run_s", "s", runS, "", runS, runS)
		r.add("peak_rss_mb", "MB", 10, "")
		for _, n := range simOutputs {
			r.add(n, "x", 3, "")
		}
		return resultFile{Records: []record{r}}
	}
	for name, f := range map[string]resultFile{"base.json": rec(1), "same.json": rec(1.01), "slow.json": rec(2)} {
		if err := writeJSON(filepath.Join(dir, name), &f); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := runCompare(specPath, filepath.Join(dir, "base.json"), filepath.Join(dir, "same.json"), &out, &out); code != 0 {
		t.Fatalf("same: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(specPath, filepath.Join(dir, "base.json"), filepath.Join(dir, "slow.json"), &out, &out); code != 1 ||
		!regexp.MustCompile(`(?m)^w +run_s .* worse$`).MatchString(out.String()) {
		t.Fatalf("slow: exit %d\n%s", code, out.String())
	}
}

// TestMobilintClean runs the repository's analyzer suite over this
// package: no finding and no unused suppression, as mobilint -strict-allow
// requires.
func TestMobilintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data through go list")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.GoList(wd, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	loader := framework.NewLoader(wd)
	for _, p := range pkgs {
		pkg, err := loader.LoadPackage(p[1], p[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Error(terr)
		}
		diags, unused, err := framework.RunSuite(pkg, analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Error(d.String())
		}
		for _, u := range unused {
			t.Errorf("%s suppresses nothing", u.String())
		}
	}
}
