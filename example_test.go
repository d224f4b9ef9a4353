package mobicache_test

import (
	"fmt"

	"mobicache"
)

// The minimal run: Table 1's configuration with the paper's AAW scheme.
// Results are deterministic for a fixed seed, so the output is testable.
func Example() {
	cfg := mobicache.DefaultConfig()
	cfg.Scheme = "aaw"
	cfg.SimTime = 5000
	cfg.Seed = 7

	res, err := mobicache.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("answered queries:", res.QueriesAnswered > 0)
	fmt.Println("stale reads:", res.ConsistencyViolations)
	// Output:
	// answered queries: true
	// stale reads: 0
}

// Comparing two schemes under identical workloads and seeds isolates the
// invalidation method as the only difference.
func Example_compare() {
	base := mobicache.DefaultConfig()
	base.SimTime = 5000
	base.Workload = mobicache.HotCold(base.DBSize)

	var answered = map[string]int64{}
	for _, scheme := range []string{"aaw", "bs"} {
		cfg := base
		cfg.Scheme = scheme
		res, err := mobicache.Run(cfg)
		if err != nil {
			panic(err)
		}
		answered[scheme] = res.QueriesAnswered
	}
	fmt.Println("aaw beats bs:", answered["aaw"] > answered["bs"])
	// Output:
	// aaw beats bs: true
}

// The multi-cell extension: hosts migrate between stations while powered
// off, and the schemes keep their guarantees across handoffs.
func Example_multicell() {
	cfg := mobicache.DefaultConfig()
	cfg.SimTime = 5000
	cfg.MeanDisc = 400
	cfg.ProbDisc = 0.4
	cfg.ConsistencyCheck = true
	cfg.Cells = 3
	cfg.MoveProb = 0.5

	res, err := mobicache.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("handoffs happened:", res.Handoffs > 0)
	fmt.Println("stale reads:", res.ConsistencyViolations)
	// Output:
	// handoffs happened: true
	// stale reads: 0
}
