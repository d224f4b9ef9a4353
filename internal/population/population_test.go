package population

import (
	"testing"

	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/netsim"
	"mobicache/internal/rng"
	"mobicache/internal/sim"
	"mobicache/internal/workload"
)

type stubServer struct{}

func (stubServer) OnControl(msg *core.ControlMsg, now sim.Time)      {}
func (stubServer) OnFetch(clientID int32, ids []int32, now sim.Time) {}

func newTestPopulation(t *testing.T, clients int) (*Population, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	up := netsim.NewChannel(k, "uplink", 10000)
	params := core.DefaultParams(100)
	scheme, err := core.Lookup("ts")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Uniform(100)
	return New(k, up, stubServer{}, Config{
		Clients:       clients,
		Side:          scheme.NewClient(params),
		Params:        params,
		CacheCapacity: 4,
		QueryAccess:   wl.Query,
		QueryItems:    wl.QueryItems,
		MeanThink:     100,
		MeanDisc:      400,
		ProbDisc:      0.1,
	}, rng.New(1), new(cache.Arena)), k
}

// TestPopulationInFlightAndCrashedDownViews pins the two per-client
// views the engine's accounting identities read: InFlight follows the
// open-query state and CrashedDown the crash hold, client by client.
func TestPopulationInFlightAndCrashedDownViews(t *testing.T) {
	p, _ := newTestPopulation(t, 2)
	p.queryOpen[0] = true
	p.offlineCrash[1] = true
	if p.InFlight(0) != 1 || p.InFlight(1) != 0 {
		t.Fatal("InFlight view diverged from queryOpen state")
	}
	if !p.CrashedDown(1) || p.CrashedDown(0) {
		t.Fatal("CrashedDown view diverged from offlineCrash state")
	}
}
