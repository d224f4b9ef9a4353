package exp

import (
	"strings"
	"sync"
	"testing"

	"mobicache/internal/engine"
	"mobicache/internal/workload"
)

// detSweep builds a small two-point sweep for determinism tests: every
// Runner gets its own *Sweep value so memoization never crosses between
// worker-count variants.
func detSweep() *Sweep {
	return &Sweep{
		ID: "det-parallel", XLabel: "Mean Disconnection Time (s)",
		Xs: []float64{400, 1200},
		Configure: func(x float64) engine.Config {
			c := engine.Default()
			c.ProbDisc = 0.1
			c.MeanDisc = x
			c.BufferPct = 0.01
			c.Workload = workload.Uniform(c.DBSize)
			return c
		},
	}
}

func detFigure(s *Sweep) Figure {
	return Figure{ID: "figdet", Title: "determinism probe", Sweep: s, Metric: Throughput}
}

// TestParallelSweepBitIdentical is the heart of the parallel harness's
// contract: the same sweep at workers 1, 2 and 8 must render the same
// bytes and produce per-run results whose manifest digests match the
// serial reference run for run. On a single-core machine the multi-worker
// variants still exercise the concurrent path (goroutines interleave even
// without parallelism); under -race this doubles as the data-race proof.
func TestParallelSweepBitIdentical(t *testing.T) {
	type outcome struct {
		rendered string
		sweep    *SweepResult
	}
	runAt := func(workers int) outcome {
		s := detSweep()
		r := NewRunner(Options{SimTime: 1500, Seeds: []uint64{1, 2}, Workers: workers})
		table, err := r.RunFigure(detFigure(s))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sw, err := r.RunSweep(s) // memoized: same result the figure used
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{rendered: table.Render(), sweep: sw}
	}

	ref := runAt(1)
	for _, workers := range []int{2, 8} {
		got := runAt(workers)
		if got.rendered != ref.rendered {
			t.Errorf("workers=%d table differs from serial:\n%s\n--- want ---\n%s",
				workers, got.rendered, ref.rendered)
		}
		// Per-run digest check: every (x, scheme, seed) simulation must be
		// the same simulation, not merely average to the same table.
		for _, x := range ref.sweep.Sweep.Xs {
			for _, scheme := range ref.sweep.Schemes {
				refRuns := ref.sweep.Cells[x][scheme].Runs
				gotRuns := got.sweep.Cells[x][scheme].Runs
				if len(refRuns) != len(gotRuns) {
					t.Fatalf("workers=%d x=%v %s: %d runs, want %d",
						workers, x, scheme, len(gotRuns), len(refRuns))
				}
				for i, refRun := range refRuns {
					m := engine.NewManifest(refRun)
					if err := m.VerifyReplay(gotRuns[i]); err != nil {
						t.Errorf("workers=%d x=%v %s seed[%d]: digest mismatch: %v",
							workers, x, scheme, i, err)
					}
				}
			}
		}
	}
}

// TestParallelSweepProgressComplete: the progress callback fires exactly
// once per cell at any worker count, and calls never overlap.
func TestParallelSweepProgressComplete(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		seen := map[string]int{}
		s := detSweep()
		s.Schemes = []string{"aaw", "bs"}
		r := NewRunner(Options{
			SimTime: 800,
			Workers: workers,
			Progress: func(line string) {
				mu.Lock()
				key := strings.Join(strings.Fields(line)[:6], " ")
				seen[key]++
				mu.Unlock()
			},
		})
		if _, err := r.RunSweep(s); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 4 { // 2 xs × 2 schemes × 1 seed
			t.Fatalf("workers=%d: %d distinct progress lines, want 4: %v", workers, len(seen), seen)
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: progress line %q fired %d times", workers, key, n)
			}
		}
	}
}

// TestParallelSweepDeterministicError: a Check failure surfaces the same
// (lowest grid index) error at any worker count.
func TestParallelSweepDeterministicError(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		s := detSweep()
		s.Check = func(r *engine.Results) error {
			if r.Config.Scheme == "ts-check" {
				return errTestCheck
			}
			return nil
		}
		_, err := NewRunner(Options{SimTime: 800, Workers: workers}).RunSweep(s)
		if err == nil {
			t.Fatalf("workers=%d: Check violation not surfaced", workers)
		}
		if workers == 1 {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Errorf("workers=%d error %q, want serial error %q", workers, err.Error(), want)
		}
	}
}

var errTestCheck = errFixed("check says no")

type errFixed string

func (e errFixed) Error() string { return string(e) }
