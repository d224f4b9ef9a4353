package population

import (
	"reflect"
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

// TestPopulationResetStatsZeroesEveryCounter reflect-guards the warmup
// reset: every field of Counters must return to zero on an idle client.
// A counter added to the struct without warmup handling fails here, not
// by silently leaking warmup traffic into the measured interval.
func TestPopulationResetStatsZeroesEveryCounter(t *testing.T) {
	p, _ := newTestPopulation(t, 3)
	for i := 0; i < p.Clients(); i++ {
		pokeEveryCounter(t, p.Count(i))
	}
	p.ResetStats()
	for i := 0; i < p.Clients(); i++ {
		assertCountersZero(t, i, p.Count(i))
	}
}

// pokeEveryCounter sets every numeric field of c, including the exported
// fields of nested tallies, to a non-zero value.
func pokeEveryCounter(t *testing.T, c *Counters) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	ty := v.Type()
	for j := 0; j < ty.NumField(); j++ {
		fv := v.Field(j)
		switch fv.Kind() {
		case reflect.Int64:
			fv.SetInt(7)
		case reflect.Float64:
			fv.SetFloat(7.5)
		case reflect.Struct:
			// stats.Tally: poke its exported numeric fields directly.
			for s := 0; s < fv.NumField(); s++ {
				if sf := fv.Field(s); sf.CanSet() && sf.Kind() == reflect.Float64 {
					sf.SetFloat(7.5)
				} else if sf.CanSet() && sf.Kind() == reflect.Int64 {
					sf.SetInt(7)
				}
			}
		default:
			t.Fatalf("unhandled Counters field %s of kind %v; extend the reset guard",
				ty.Field(j).Name, fv.Kind())
		}
	}
}

// assertCountersZero fails for every field of c not at its zero value.
func assertCountersZero(t *testing.T, client int, c *Counters) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	for j := 0; j < v.NumField(); j++ {
		if !v.Field(j).IsZero() {
			t.Errorf("client %d: ResetStats left %s = %v on an idle client",
				client, v.Type().Field(j).Name, v.Field(j))
		}
	}
}

// TestPopulationResetStatsCarriesInFlight pins the warmup carry-over: an
// open query stays issued and a straddling crash stays counted, so the
// measured-interval accounting identities close.
func TestPopulationResetStatsCarriesInFlight(t *testing.T) {
	p, _ := newTestPopulation(t, 2)
	p.queryOpen[0] = true
	p.offlineCrash[1] = true
	p.counts[0].QueriesIssued = 5
	p.counts[1].Crashes = 3
	p.ResetStats()
	if got := p.Count(0).QueriesIssued; got != 1 {
		t.Fatalf("in-flight query not carried: QueriesIssued=%d, want 1", got)
	}
	if got := p.Count(1).Crashes; got != 1 {
		t.Fatalf("straddling crash not carried: Crashes=%d, want 1", got)
	}
	if p.InFlight(0) != 1 || p.InFlight(1) != 0 {
		t.Fatal("InFlight view diverged from queryOpen state")
	}
	if !p.CrashedDown(1) || p.CrashedDown(0) {
		t.Fatal("CrashedDown view diverged from offlineCrash state")
	}
}
