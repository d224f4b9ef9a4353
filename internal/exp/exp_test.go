package exp

import (
	"strings"
	"testing"
)

func TestFigureRegistryComplete(t *testing.T) {
	if len(Figures) != 12 {
		t.Fatalf("figures = %d, want 12 (figures 5..16)", len(Figures))
	}
	for i, f := range Figures {
		wantID := "fig" + itoa(i+5)
		if f.ID != wantID {
			t.Fatalf("figure %d id = %s, want %s", i, f.ID, wantID)
		}
		if f.Sweep == nil {
			t.Fatalf("%s has no sweep", f.ID)
		}
		for _, x := range f.Sweep.Xs {
			c := f.Sweep.Configure(x)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s x=%v: invalid config: %v", f.ID, x, err)
			}
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func TestFigureByID(t *testing.T) {
	f, err := FigureByID("fig15")
	if err != nil || f.Sweep.ID != "uniform-uplink" {
		t.Fatalf("fig15 lookup: %+v %v", f, err)
	}
	if _, err := FigureByID("fig99"); err == nil {
		t.Fatal("bogus figure found")
	}
}

func TestSweepSharingAndRendering(t *testing.T) {
	// Tiny sweep: a two-point, two-scheme copy of fig5/fig6's family.
	sw := *Sweeps["uniform-dbsize"]
	sw.Xs, sw.Schemes = []float64{1000, 5000}, []string{"aaw", "bs"}
	fig5, fig6 := Figures[0], Figures[1]
	fig5.Sweep, fig6.Sweep = &sw, &sw

	var progress []string
	r := NewRunner(Options{
		SimTime:  2000,
		Progress: func(s string) { progress = append(progress, s) },
	})
	f5, err := r.RunFigure(fig5)
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := len(progress)
	f6, err := r.RunFigure(fig6) // shares the sweep
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != runsAfterFirst {
		t.Fatalf("fig6 re-ran the shared sweep (%d -> %d runs)", runsAfterFirst, len(progress))
	}
	if runsAfterFirst != 2*2 { // 2 points x 2 schemes x 1 seed
		t.Fatalf("runs = %d", runsAfterFirst)
	}
	if len(f5.Xs) != 2 || len(f6.Xs) != 2 {
		t.Fatalf("xs: %v %v", f5.Xs, f6.Xs)
	}
	for _, x := range f5.Xs {
		if f5.Values[x]["aaw"] <= 0 {
			t.Fatalf("no throughput at x=%v", x)
		}
		if f6.Values[x]["bs"] != 0 {
			t.Fatalf("bs uplink cost %v, want 0", f6.Values[x]["bs"])
		}
	}
	out := f5.Render()
	for _, want := range []string{"Fig5", "aaw", "bs", "1000", "5000", "Database Size"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := f5.CSV()
	if !strings.HasPrefix(csv, "x,aaw,bs\n") {
		t.Fatalf("csv header: %q", csv[:20])
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv rows:\n%s", csv)
	}
}

func TestXFilterRestrictsFig9(t *testing.T) {
	f9, _ := FigureByID("fig9")
	count := 0
	for _, x := range f9.Sweep.Xs {
		if f9.XFilter(x) {
			count++
			if x > 2000 {
				t.Fatalf("fig9 shows x=%v > 2000", x)
			}
		}
	}
	if count != 10 {
		t.Fatalf("fig9 points = %d, want 10 (200..2000)", count)
	}
	f10, _ := FigureByID("fig10")
	if f10.XFilter != nil {
		t.Fatal("fig10 should show the full range")
	}
}

func TestMultiSeedAveraging(t *testing.T) {
	sw := &Sweep{
		ID:        "avg-test",
		XLabel:    "Database Size",
		Xs:        []float64{10000},
		Configure: Sweeps["uniform-probdisc"].Configure,
	}
	// Reuse the probdisc configurator at a fixed x (prob 0.1 ignored; the
	// Xs value feeds ProbDisc, so keep it legal).
	sw.Xs, sw.Schemes = []float64{0.2}, []string{"aaw"}
	r := NewRunner(Options{SimTime: 2000, Seeds: []uint64{1, 2, 3}})
	res, err := r.RunSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0.2]["aaw"]
	if len(cell.Runs) != 3 {
		t.Fatalf("runs = %d", len(cell.Runs))
	}
	if cell.ThroughputCI <= 0 {
		t.Fatalf("CI = %v with 3 seeds", cell.ThroughputCI)
	}
	// The average must lie within the seed extremes.
	lo, hi := 1e18, -1e18
	for _, run := range cell.Runs {
		v := float64(run.QueriesAnswered)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if cell.Throughput < lo || cell.Throughput > hi {
		t.Fatalf("mean %v outside [%v,%v]", cell.Throughput, lo, hi)
	}
}

func TestMetricStrings(t *testing.T) {
	if Throughput.String() == "" || UplinkPerQuery.String() == "" {
		t.Fatal("metric labels")
	}
	if Metric(9).String() != "metric(?)" {
		t.Fatal("unknown metric label")
	}
}

func TestExtensionRegistry(t *testing.T) {
	if len(Extensions) == 0 {
		t.Fatal("no extension figures")
	}
	for _, f := range Extensions {
		if f.Sweep == nil {
			t.Fatalf("%s has no sweep", f.ID)
		}
		for _, x := range f.Sweep.Xs {
			c := f.Sweep.Configure(x)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s x=%v: %v", f.ID, x, err)
			}
		}
		got, err := ExtensionByID(f.ID)
		if err != nil || got.ID != f.ID {
			t.Fatalf("lookup %s: %v", f.ID, err)
		}
	}
	if _, err := ExtensionByID("ext-nope"); err == nil {
		t.Fatal("bogus extension found")
	}
}

func TestExtensionSleeperRun(t *testing.T) {
	f, err := ExtensionByID("ext-sleepers-thr")
	if err != nil {
		t.Fatal(err)
	}
	sw := *f.Sweep
	sw.Xs, sw.Schemes = []float64{2000}, []string{"sig", "bs"}
	f.Sweep = &sw
	r := NewRunner(Options{SimTime: 3000})
	table, err := r.RunFigure(f)
	if err != nil {
		t.Fatal(err)
	}
	if table.Values[2000]["sig"] <= 0 || table.Values[2000]["bs"] <= 0 {
		t.Fatalf("values = %+v", table.Values)
	}
}

func TestPlotRendering(t *testing.T) {
	f, _ := FigureByID("fig5")
	tbl := &FigureTable{
		Figure:  f,
		Schemes: []string{"aaw", "bs"},
		Xs:      []float64{1000, 40000, 80000},
		Values: map[float64]map[string]float64{
			1000:  {"aaw": 12300, "bs": 12200},
			40000: {"aaw": 12100, "bs": 7000},
			80000: {"aaw": 12000, "bs": 2400},
		},
	}
	out := tbl.Plot(60, 15)
	for _, want := range []string{"Fig5", "* aaw", "+ bs", "Database Size", "1000", "80000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	// The BS curve must descend: its glyph appears on more than one row.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.ContainsRune(line, '+') && strings.Contains(line, "|") {
			rows++
		}
	}
	if rows < 2 {
		t.Fatalf("bs curve flat in plot:\n%s", out)
	}
}

func TestPlotDegenerate(t *testing.T) {
	f, _ := FigureByID("fig5")
	empty := &FigureTable{Figure: f}
	if out := empty.Plot(10, 4); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %q", out)
	}
	flat := &FigureTable{
		Figure:  f,
		Schemes: []string{"aaw"},
		Xs:      []float64{5},
		Values:  map[float64]map[string]float64{5: {"aaw": 7}},
	}
	out := flat.Plot(0, 0) // minimums enforced
	if !strings.Contains(out, "* aaw") {
		t.Fatalf("single-point plot:\n%s", out)
	}
}
