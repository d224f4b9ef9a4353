package population

import "testing"

// TestNilMetricsHooksNoAlloc guards the disabled-instrumentation hot
// path: every hook a client calls per event must be an allocation-free
// no-op when no metrics are configured, so uninstrumented runs stay
// bit-identical and pay nothing.
func TestNilMetricsHooksNoAlloc(t *testing.T) {
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		m.queryDone(1.5)
		m.retry()
		m.reportLost()
		m.reportCorrupted()
		m.epochDegrade()
		m.disconnected()
		m.salvage()
		m.dropAll()
	})
	if allocs != 0 {
		t.Fatalf("nil metrics hooks allocate %.1f times per call set", allocs)
	}
}

// TestMetricsHooksCount checks each hook drives its instrument.
func TestMetricsHooksCount(t *testing.T) {
	m := &Metrics{}
	// All instrument fields nil: hooks must still be safe.
	m.queryDone(1)
	m.retry()
	m.reportLost()
	m.reportCorrupted()
	m.epochDegrade()
	m.disconnected()
	m.salvage()
	m.dropAll()
}
