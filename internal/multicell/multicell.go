// Package multicell extends the paper's single-cell model to the
// multi-cell environment its §2 describes: the geographic area is
// partitioned into cells, each covered by a mobile support station with
// its own downlink and uplink channels, the database is replicated at
// every station, and mobile hosts move between cells.
//
// Mobility is modelled at disconnection boundaries: a powered-off host
// may wake up under a different station (probability MoveProb per
// disconnection). That is exactly when a handoff is protocol-safe — no
// fetch or validity exchange is in flight — and it reproduces the
// situation the invalidation schemes must survive: the client's Tlb now
// refers to reports it heard in another cell. Because every station
// broadcasts on the same schedule from the same (replicated) database,
// timestamps stay globally meaningful and each scheme's reconnection
// machinery handles arrival in a new cell like a long disconnection in
// the old one.
package multicell

import (
	"fmt"

	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/engine"
	"mobicache/internal/netsim"
	"mobicache/internal/population"
	"mobicache/internal/report"
	"mobicache/internal/rng"
	"mobicache/internal/server"
	"mobicache/internal/sim"
	"mobicache/internal/stats"
)

// Config describes a multi-cell simulation. Cell/base parameters come
// from the embedded single-cell configuration; Clients is the total
// population, spread round-robin over the cells.
type Config struct {
	// Base is the single-cell configuration (Table 1 defaults apply).
	Base engine.Config
	// Cells is the number of mobile support stations (>= 1).
	Cells int
	// MoveProb is the probability that a host wakes up from a
	// disconnection in a (uniformly chosen) different cell.
	MoveProb float64
}

// DefaultConfig is four cells with 30% mobility per disconnection.
func DefaultConfig() Config {
	return Config{Base: engine.Default(), Cells: 4, MoveProb: 0.3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Cells < 1 {
		return fmt.Errorf("multicell: need at least one cell")
	}
	if c.MoveProb < 0 || c.MoveProb > 1 {
		return fmt.Errorf("multicell: invalid move probability %v", c.MoveProb)
	}
	return nil
}

// CellStats summarizes one cell.
type CellStats struct {
	QueriesAnswered int64
	DownUtilization float64
	ReportsSent     map[string]int64
}

// Results aggregates a multi-cell run.
type Results struct {
	Config Config
	// QueriesAnswered is the population-wide total.
	QueriesAnswered int64
	// UplinkBitsPerQuery is validation uplink over answered queries.
	UplinkBitsPerQuery float64
	// Handoffs counts cell changes.
	Handoffs int64
	// HitRatio is the population-wide cache hit ratio.
	HitRatio float64
	// Drops and Salvages aggregate cache outcomes.
	Drops, Salvages int64
	// PerCell holds one entry per cell.
	PerCell []CellStats
	// MeanResponse averages the per-client mean response times.
	MeanResponse float64
	// ConsistencyViolations counts stale reads (with checking enabled).
	ConsistencyViolations int64
	FirstViolation        *engine.Violation
}

type cell struct {
	down *netsim.Channel
	up   *netsim.Channel
	srv  *server.Server
}

// Run executes a multi-cell simulation.
func Run(c Config) (*Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	scheme, err := core.Lookup(c.Base.Scheme)
	if err != nil {
		return nil, err
	}
	base := c.Base
	params := core.Params{
		N: base.DBSize,
		L: base.Period,
		W: base.WindowIntervals,
		Rep: report.Params{
			N:          base.DBSize,
			TSBits:     base.TSBits,
			HeaderBits: base.HeaderBits,
		},
	}

	k := sim.New()
	root := rng.New(base.Seed)
	d := db.New(base.DBSize, base.ConsistencyCheck)

	res := &Results{Config: c}
	var hook func(clientID, itemID, version int32, tlb float64)
	if base.ConsistencyCheck {
		hook = func(clientID, itemID, version int32, tlb float64) {
			correct := d.VersionAt(itemID, tlb)
			if version < correct {
				res.ConsistencyViolations++
				if res.FirstViolation == nil {
					res.FirstViolation = &engine.Violation{
						Client: clientID, Item: itemID,
						Served: version, Correct: correct, Tlb: tlb,
					}
				}
			}
		}
	}

	// One station per cell; every station broadcasts from the shared
	// (replicated) database, and station 0 applies the update stream.
	cells := make([]*cell, c.Cells)
	for i := range cells {
		down := netsim.NewChannel(k, fmt.Sprintf("downlink-%d", i), base.DownlinkBps)
		up := netsim.NewChannel(k, fmt.Sprintf("uplink-%d", i), base.UplinkBps)
		srv := server.New(k, d, down, server.Config{
			Scheme:                 scheme.NewServer(params),
			Params:                 params,
			ItemBits:               base.ItemBits,
			UpdateAccess:           base.Workload.Update,
			UpdateItems:            base.Workload.UpdateItems,
			MeanUpdateInterarrival: base.MeanUpdate,
			Tracer:                 base.Trace,
		}, root.Split(uint64(i)))
		cells[i] = &cell{down: down, up: up, srv: srv}
	}

	// One population across all cells, clients placed round-robin, with
	// the mobility hook.
	moveRNG := root.Split(999)
	where := make([]int, base.Clients) // client id -> cell index
	var pop *population.Population
	pop = population.New(k, cells[0].up, cells[0].srv, population.Config{
		Clients:          base.Clients,
		Side:             scheme.NewClient(params),
		Params:           params,
		CacheCapacity:    base.CacheCapacity(),
		QueryAccess:      base.Workload.Query,
		QueryItems:       base.Workload.QueryItems,
		MeanThink:        base.MeanThink,
		ProbDisc:         base.ProbDisc,
		MeanDisc:         base.MeanDisc,
		DiscPerInterval:  base.DiscPerInterval,
		FetchRequestBits: base.ControlMsgBits,
		ConsistencyHook:  hook,
		Tracer:           base.Trace,
		OnWake: func(i int) {
			if c.Cells < 2 || !moveRNG.Bool(c.MoveProb) {
				return
			}
			old := where[i]
			next := moveRNG.Intn(c.Cells - 1)
			if next >= old {
				next++
			}
			cells[old].srv.Detach(int32(i))
			cells[next].srv.Attach(pop.Handle(i))
			pop.Reattach(i, cells[next].up, cells[next].srv)
			where[i] = next
			res.Handoffs++
		},
	}, root)
	for i := range where {
		home := i % c.Cells
		where[i] = home
		pop.Reattach(i, cells[home].up, cells[home].srv)
		cells[home].srv.Attach(pop.Handle(i))
		pop.StartClient(i)
	}
	cells[0].srv.StartUpdates()
	for _, ce := range cells {
		ce.srv.StartBroadcast()
	}

	k.Run(base.SimTime)

	var resp stats.Tally
	var hits, misses int64
	for i := range where {
		cnt, st := pop.Count(i), pop.State(i)
		res.QueriesAnswered += cnt.QueriesAnswered
		res.UplinkBitsPerQuery += cnt.ValidationUplinkBits
		hits += st.Cache.Hits()
		misses += st.Cache.Misses()
		res.Drops += st.Drops
		res.Salvages += st.Salvages
		if cnt.RespTime.N() > 0 {
			resp.Observe(cnt.RespTime.Mean())
		}
	}
	if res.QueriesAnswered > 0 {
		res.UplinkBitsPerQuery /= float64(res.QueriesAnswered)
	}
	if hits+misses > 0 {
		res.HitRatio = float64(hits) / float64(hits+misses)
	}
	res.MeanResponse = resp.Mean()
	for _, ce := range cells {
		cs := CellStats{
			DownUtilization: ce.down.Utilization(base.SimTime),
			ReportsSent:     make(map[string]int64),
		}
		for kind, n := range ce.srv.ReportsSent {
			cs.ReportsSent[kind.String()] = n
		}
		res.PerCell = append(res.PerCell, cs)
	}
	// Per-cell query attribution: clients move, so attribute by final
	// residence (a simple, documented choice).
	for i, ci := range where {
		res.PerCell[ci].QueriesAnswered += pop.Count(i).QueriesAnswered
	}
	return res, nil
}
