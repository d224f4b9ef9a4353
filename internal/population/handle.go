package population

import (
	"mobicache/internal/churn"
	"mobicache/internal/core"
	"mobicache/internal/report"
	"mobicache/internal/sim"
)

// Handle is one client's facade over the population: it implements
// server.Receiver (downlink deliveries) and churn.Host
// (forced-offline transitions) by indexing into the population's flat
// slices. One Handle per client lives in a flat slice too, so attaching
// a million receivers allocates nothing beyond the array.
type Handle struct {
	p *Population
	i int32
}

// ID implements server.Receiver.
func (h *Handle) ID() int32 { return h.p.states[h.i].ID }

// Connected implements server.Receiver: the host hears the cell only
// when it is not voluntarily asleep and not forced offline.
func (h *Handle) Connected() bool {
	return h.p.connected[h.i] && !h.p.offline(h.i)
}

// DeliverReport implements server.Receiver.
//
//hot — the broadcast tick fans one report out to the whole population.
func (h *Handle) DeliverReport(r report.Report, now sim.Time) {
	h.p.deliverReport(h.i, r, now)
}

// DeliverValidity implements server.Receiver.
func (h *Handle) DeliverValidity(v *report.ValidityReport, now sim.Time) {
	h.p.deliverValidity(h.i, v, now)
}

// DeliverItem implements server.Receiver.
func (h *Handle) DeliverItem(id int32, version int32, ts float64, now sim.Time) {
	h.p.deliverItem(h.i, id, version, ts, now)
}

// DeliverBusy implements server.Receiver: the server's admission control
// rejected a fetch. The client only counts it; recovery rides the armed
// retry/deadline machinery.
func (h *Handle) DeliverBusy(id int32, now sim.Time) {
	if h.p.offline(h.i) {
		return
	}
	h.p.counts[h.i].BusyHeard++
}

// State implements churn.Host.
func (h *Handle) State() *core.ClientState { return &h.p.states[h.i] }

// StormDown implements churn.Host: a mass-disconnect storm forces the
// host into disconnection. Any validation exchange in flight is
// abandoned, exactly as on a voluntary power-down. Idempotent.
func (h *Handle) StormDown() {
	p, i := h.p, h.i
	if p.offlineStorm[i] {
		return
	}
	p.offlineStorm[i] = true
	p.states[i].AbandonPending()
	cnt := &p.counts[i]
	cnt.Disconnections++
	cnt.StormDisconnects++
}

// StormUp implements churn.Host: the storm hold clears — at the heal
// instant, or through the paced resync backoff (paced). The host stays
// offline while also crashed; the restart then completes the resume.
// Idempotent.
func (h *Handle) StormUp(paced bool) {
	p, i := h.p, h.i
	if !p.offlineStorm[i] {
		return
	}
	p.offlineStorm[i] = false
	p.resumeIfOnline(i)
}

// CrashDown implements churn.Host: the client crashes. In-flight
// validation state is abandoned; the cache's fate is decided by Restart.
// Idempotent.
func (h *Handle) CrashDown() {
	p, i := h.p, h.i
	if p.offlineCrash[i] {
		return
	}
	p.offlineCrash[i] = true
	p.states[i].AbandonPending()
	p.counts[i].Crashes++
}

// Restart implements churn.Host: warm reinstates the persisted cache,
// validation horizon and epoch; cold drops everything a process keeps in
// memory. Scheme-specific Ext state is process memory and is lost either
// way.
func (h *Handle) Restart(snap *churn.Snapshot, rejected bool) {
	p, i := h.p, h.i
	if !p.offlineCrash[i] {
		panic("population: restart without a crash")
	}
	st := &p.states[i]
	cnt := &p.counts[i]
	if snap != nil {
		st.Cache.Reload(snap.Entries)
		st.Tlb = snap.Tlb
		st.Epoch = snap.Epoch
		st.Salvages++
		cnt.RestartsWarm++
	} else {
		st.Cache.DropAll()
		st.Drops++
		st.Tlb = 0
		st.Epoch = 0
		cnt.RestartsCold++
		if rejected {
			cnt.SnapshotRejects++
		}
	}
	st.Ext = nil
	p.offlineCrash[i] = false
	p.resumeIfOnline(i)
}

// CrashedDown reports whether the host is crashed and not yet restarted.
func (h *Handle) CrashedDown() bool { return h.p.offlineCrash[h.i] }
