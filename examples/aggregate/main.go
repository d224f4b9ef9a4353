// Aggregate: the million-client story. The paper evaluates its schemes
// over ~100 mobile hosts; the client population (flat struct-of-arrays
// client state, bitmap caches over shared arenas, an event-driven
// lifecycle) holds one cell at population scales far beyond that. This
// example grows one cell 1000x and reports wall-clock, event rate and
// allocated bytes per client at each step.
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"mobicache"
)

func main() {
	// The same cell grown 1000x: a small item space and cache keep the
	// arenas dense, higher bandwidth and think time keep the channel model
	// sane at population scale. The bytes figure is measured live from the
	// heap either side of the run.
	fmt.Println("one cell, growing the population 1000x")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tqueries\tevents\twall\tevents/s\tbytes/client")
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		cfg := mobicache.DefaultConfig()
		cfg.Scheme = "aaw"
		cfg.Clients = n
		cfg.DBSize = 1000
		cfg.Workload = mobicache.Uniform(cfg.DBSize)
		cfg.BufferPct = 0.008
		cfg.MeanThink = 2000
		cfg.UplinkBps = 1e7
		cfg.DownlinkBps = 1e7
		cfg.SimTime = 300

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := mobicache.Run(cfg)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			log.Fatal(err)
		}
		perClient := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1fs\t%.0f\t%.0f\n",
			n, res.QueriesAnswered, res.Events, wall.Seconds(),
			float64(res.Events)/wall.Seconds(), perClient)
	}
	w.Flush()
}
