package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints one row per workload and metric: every end-to-end
// metric of BENCHMARK.json under its bound, then the simulated outputs,
// which must be identical. It exits 1 when any row is worse or changed.
func runCompare(specPath, basePath, changePath string, stdout, stderr io.Writer) int {
	var sp spec
	var base, change resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {basePath, &base}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "mobibench:", err)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "change", "delta", "bound", "verdict")
	row := func(workload string, bd bound, b, c *record) {
		bm, okB := b.get(bd.Name)
		var cm metric
		okC := false
		if c != nil {
			cm, okC = c.get(bd.Name)
		}
		boundText := strconv.FormatFloat(bd.Bound, 'g', 3, 64)
		if bd.Bound < 0 {
			boundText = "exact"
		}
		if !okB || !okC {
			fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %9s %7s  missing\n", workload, bd.Name, "", "", "", boundText)
			status = 1
			return
		}
		v := verdict(bd, bm, cm)
		if v == "worse" || v == "changed" {
			status = 1
		}
		fmt.Fprintf(stdout, "%-12s %-20s %14.6g %14.6g %+8.2f%% %7s  %s\n",
			workload, bd.Name, bm.Value, cm.Value, 100*relDelta(bm.Value, cm.Value), boundText, v)
	}
	for i := range base.Records {
		b := &base.Records[i]
		if b.Traced {
			continue
		}
		c := findRecord(change.Records, b.Workload)
		for _, bd := range sp.EndToEnd {
			row(b.Workload, bd, b, c)
		}
		for _, name := range simOutputs {
			row(b.Workload, bound{Name: name, Better: "equal", Bound: -1}, b, c)
		}
	}
	return status
}

func findRecord(rs []record, workload string) *record {
	for i := range rs {
		if rs[i].Workload == workload && !rs[i].Traced {
			return &rs[i]
		}
	}
	return nil
}

// verdict applies one bound. A deterministic simulated output (negative
// bound) is unchanged only when bit-identical. A timed metric is
// unresolved when the IQR of either side's samples, as a share of its
// median, exceeds the bound; otherwise it is better or worse when the
// medians differ by more than the bound.
func verdict(bd bound, base, change metric) string {
	if bd.Bound < 0 {
		if base.Value == change.Value {
			return "unchanged"
		}
		return "changed"
	}
	worse := relDelta(base.Value, change.Value)
	if bd.Better == "higher" {
		worse = -worse
	}
	if relIQR(base.Samples) > bd.Bound || relIQR(change.Samples) > bd.Bound {
		return "unresolved"
	}
	switch {
	case worse > bd.Bound:
		return "worse"
	case worse < -bd.Bound:
		return "better"
	default:
		return "unchanged"
	}
}

func relDelta(base, change float64) float64 {
	if base == 0 {
		if change == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (change - base) / math.Abs(base)
}

// relIQR is the distance between the first and third quartiles as a
// share of the median, with quartiles computed like Python's
// statistics.quantiles(xs, n=4) (the exclusive method). Fewer than two
// samples have no spread.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}
