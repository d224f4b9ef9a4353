// Package trace provides a lightweight event tracer for simulation runs:
// a fixed-capacity ring buffer of typed events that the engine's server
// and clients record when tracing is enabled. It exists for debugging and
// for teaching — dumping the last few hundred events of a run shows the
// protocol working (reports going out, feedback coming back, caches being
// salvaged or dropped) without wading through full statistics.
package trace

import (
	"fmt"
	"io"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	// ReportBroadcast: the server started transmitting a report.
	// A = report kind (report.Kind), B = size in bits.
	ReportBroadcast Kind = iota
	// ReportDelivered: a client finished receiving a report.
	// A = report kind.
	ReportDelivered
	// ControlSent: a client queued a validation message uplink.
	// A = 0 for a check request, 1 for Tlb feedback; B = size in bits.
	ControlSent
	// ValiditySent: the server answered a check. Client = the addressee,
	// B = size in bits.
	ValiditySent
	// ItemDelivered: a fetched item reached its client. A = item id.
	ItemDelivered
	// QueryStart: a client generated a query. B = item count.
	QueryStart
	// QueryDone: a query completed. B = response time in microseconds.
	QueryDone
	// CacheDrop: a scheme call discarded a client's whole cache (its
	// Drops counter rose). CacheDrop + RestartCold == Results.Drops.
	CacheDrop
	// CacheSalvage: a scheme call revalidated a long-disconnected
	// client's cache and kept part of it (its Salvages counter rose).
	// CacheSalvage + RestartWarm == Results.Salvages.
	CacheSalvage
	// Disconnect: a client powered down. B = planned sleep in microseconds.
	Disconnect
	// Reconnect: a client woke up.
	Reconnect
	// FaultLoss: a message was destroyed by the injected channel fault
	// model. Client = receiver (-1 for shared uplink losses), A = traffic
	// class (netsim.Class).
	FaultLoss
	// FaultCorrupt: a message arrived corrupted and failed decoding.
	// Client = receiver (-1 for shared uplink), A = traffic class.
	FaultCorrupt
	// ServerCrash: the server process died, losing its in-memory protocol
	// state. B = the recovery epoch the restart will announce.
	ServerCrash
	// ServerRestart: the server came back up. B = recovery epoch.
	ServerRestart
	// RetryAttempt: a client timed out an uplink exchange. A = exchange
	// (0 fetch, 1 check, 2 feedback), B = attempt number (1 = first retry).
	RetryAttempt
	// QueryShed: a client abandoned a query outright because the bounded
	// uplink tail-dropped the only fetch request the query would ever
	// send (no retry policy to re-issue it). B = missing item count.
	QueryShed
	// QueryDeadline: a query exceeded its deadline and was abandoned;
	// the client counts it as a timeout. B = elapsed microseconds.
	QueryDeadline
	// Coalesced: the server merged a fetch into an already-pending
	// downlink transmission of the same item. Client = requester,
	// A = item id.
	Coalesced
	// ServerBusy: the server's admission control rejected a fetch beyond
	// the pending-table high-water mark. Client = requester, A = item id.
	ServerBusy
	// ChannelShed: a bounded channel queue tail-dropped a message at
	// admission. Client = -1, A = traffic class (netsim.Class), B = 0
	// for the downlink, 1 for the uplink.
	ChannelShed
	// IRGap: a client's sequence fence detected missing broadcast(s)
	// between the last report it processed and this one; the client takes
	// the scheme's conservative long-disconnection path. A = sequence
	// delta (how many broadcasts are missing + 1).
	IRGap
	// IRDuplicate: a client received a report with the sequence number it
	// already processed and dropped it idempotently. A = sequence number.
	IRDuplicate
	// IRReorder: a client received a report older (by sequence) than one
	// it already processed — delivered out of order beyond the window —
	// and dropped it. A = negative sequence delta.
	IRReorder
	// PartitionStart: the adversarial delivery layer partitioned the cell.
	// Client = -1, A = partition mode (0 downlink-only, 1 uplink-only,
	// 2 full), B = scheduled heal time in microseconds.
	PartitionStart
	// PartitionHeal: a partition healed on schedule. A = partition mode.
	PartitionHeal
	// ClockSkewApplied: the delivery layer armed a client's clock-error
	// model. A = constant offset in microseconds, B = drift in
	// nanoseconds per simulated second.
	ClockSkewApplied
	// QueryValidated: a query's cache contents passed validation (the
	// client's Tlb caught up to the query instant), so the answer phase
	// begins. A = items answered from cache, B = items still missing
	// (the fetch the client is about to issue; 0 means a pure cache hit
	// and QueryDone follows immediately).
	QueryValidated
	// FetchSent: a fetch request was admitted onto the uplink queue.
	// Recorded once per attempt, so retries re-stamp the uplink-queue
	// phase. A = item count, B = attempt number (0 = first send).
	FetchSent
	// UplinkTxStart: the uplink actually began transmitting a client's
	// message (queueing ended, transmission started). A = exchange
	// (0 fetch, 1 check, 2 feedback), mirroring RetryAttempt's encoding.
	// Preemptive-resume restarts re-stamp; span assembly keeps the first.
	UplinkTxStart
	// FetchArrived: a fetch request reached the server. Client =
	// requester, A = item count, B = 1 when the server was crashed and
	// dropped it (the request still spent its uplink time).
	FetchArrived
	// ControlArrived: a validation message reached the server. Client =
	// sender, A = 0 for a check request, 1 for Tlb feedback, B = 1 when
	// the server was crashed and dropped it.
	ControlArrived
	// ValidityTxStart: the downlink began transmitting a validity reply.
	// Client = addressee.
	ValidityTxStart
	// ItemTxStart: the downlink began transmitting a fetched item.
	// Client = the requester of record (first waiter; clients coalesced
	// onto the same pending transmission get no ItemTxStart and keep
	// accruing server time — they share one service phase). A = item id.
	ItemTxStart
	// ValidityDelivered: a validity reply reached its client. A = 0 when
	// the client was awaiting it, 1 when it arrived stale (the exchange
	// had been abandoned or the client sleeps) and was dropped.
	ValidityDelivered
	// StormStart: the churn adversary forced a cohort of clients into
	// disconnection at once. Client = -1, A = cohort size, B = scheduled
	// heal time in microseconds.
	StormStart
	// StormEnd: a disconnection storm healed; the cohort reconnects (all
	// at once, or spread by resync pacing). Client = -1, A = cohort size.
	StormEnd
	// ClientCrash: a client process died, losing its in-memory state.
	// A = 1 when a cache snapshot was persisted for the restart, 0 when
	// nothing survived.
	ClientCrash
	// RestartWarm: a crashed client restarted from a persisted cache
	// snapshot that decoded, checksummed and aged within the trust
	// contract. A = restored entry count.
	RestartWarm
	// RestartCold: a crashed client restarted with an empty cache (no
	// snapshot persisted, or the snapshot was rejected). A = 1 when a
	// snapshot existed but was rejected.
	RestartCold
	// SnapshotReject: a persisted cache snapshot failed the trust checks
	// at restore. A = reason (1 corrupt/undecodable, 2 stale past the
	// TTL, 3 inconsistent fields).
	SnapshotReject
	// ResyncPaced: a storm-healed client's reconnection was deferred by
	// the resync pacing jitter. B = the drawn backoff in microseconds.
	ResyncPaced
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ReportBroadcast:
		return "report-broadcast"
	case ReportDelivered:
		return "report-delivered"
	case ControlSent:
		return "control-sent"
	case ValiditySent:
		return "validity-sent"
	case ItemDelivered:
		return "item-delivered"
	case QueryStart:
		return "query-start"
	case QueryDone:
		return "query-done"
	case CacheDrop:
		return "cache-drop"
	case CacheSalvage:
		return "cache-salvage"
	case Disconnect:
		return "disconnect"
	case Reconnect:
		return "reconnect"
	case FaultLoss:
		return "fault-loss"
	case FaultCorrupt:
		return "fault-corrupt"
	case ServerCrash:
		return "server-crash"
	case ServerRestart:
		return "server-restart"
	case RetryAttempt:
		return "retry-attempt"
	case QueryShed:
		return "query-shed"
	case QueryDeadline:
		return "query-deadline"
	case Coalesced:
		return "coalesced"
	case ServerBusy:
		return "server-busy"
	case ChannelShed:
		return "channel-shed"
	case IRGap:
		return "ir-gap"
	case IRDuplicate:
		return "ir-duplicate"
	case IRReorder:
		return "ir-reorder"
	case PartitionStart:
		return "partition-start"
	case PartitionHeal:
		return "partition-heal"
	case ClockSkewApplied:
		return "clock-skew"
	case QueryValidated:
		return "query-validated"
	case FetchSent:
		return "fetch-sent"
	case UplinkTxStart:
		return "uplink-tx-start"
	case FetchArrived:
		return "fetch-arrived"
	case ControlArrived:
		return "control-arrived"
	case ValidityTxStart:
		return "validity-tx-start"
	case ItemTxStart:
		return "item-tx-start"
	case ValidityDelivered:
		return "validity-delivered"
	case StormStart:
		return "storm-start"
	case StormEnd:
		return "storm-end"
	case ClientCrash:
		return "client-crash"
	case RestartWarm:
		return "restart-warm"
	case RestartCold:
		return "restart-cold"
	case SnapshotReject:
		return "snapshot-reject"
	case ResyncPaced:
		return "resync-paced"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record. Client is -1 for server-side events. A and B
// carry kind-specific integers (see the Kind constants); keeping them as
// plain integers makes recording allocation-free.
type Event struct {
	T      float64
	Kind   Kind
	Client int32
	A, B   int64
}

// String renders the event on one line.
func (e Event) String() string {
	who := "server"
	if e.Client >= 0 {
		who = fmt.Sprintf("client %d", e.Client)
	}
	return fmt.Sprintf("%12.3f  %-17s %-10s A=%d B=%d", e.T, e.Kind, who, e.A, e.B)
}

// Tracer is a fixed-capacity ring of events. The zero value is a disabled
// tracer that drops everything; create a live one with New. All methods
// are safe on a nil receiver (recording to nil is a no-op), so model code
// can call unconditionally. An attached Sink (SetSink) additionally
// receives every recorded event before ring eviction can touch it.
type Tracer struct {
	buf    []Event
	next   int
	limit  int
	total  uint64
	counts [numKinds]uint64
	mask   uint64

	sink    Sink
	sinkErr error
}

// ringPrealloc bounds the ring storage allocated up front; capacities
// beyond it are honored lazily as the ring fills (capacity is a hint for
// the retention window, not an immediate allocation).
const ringPrealloc = 1024

// New creates a tracer keeping the most recent capacity events, recording
// every kind. Use Only to restrict kinds. Capacity is a retention hint:
// storage grows on demand up to it, so asking for a huge window costs
// only what the run actually records.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	pre := capacity
	if pre > ringPrealloc {
		pre = ringPrealloc
	}
	return &Tracer{buf: make([]Event, 0, pre), limit: capacity, mask: 1<<uint64(numKinds) - 1}
}

// Only restricts recording to the given kinds and returns the tracer.
func (t *Tracer) Only(kinds ...Kind) *Tracer {
	t.mask = 0
	for _, k := range kinds {
		t.mask |= 1 << uint64(k)
	}
	return t
}

// Enabled reports whether events of kind k are recorded.
func (t *Tracer) Enabled(k Kind) bool {
	return t != nil && t.mask&(1<<uint64(k)) != 0
}

// Record stores an event (dropping the oldest when full) and forwards it
// to the attached sink, if any. No-op on nil.
func (t *Tracer) Record(e Event) {
	if t == nil || t.mask&(1<<uint64(e.Kind)) == 0 {
		return
	}
	t.total++
	t.counts[e.Kind]++
	if t.sink != nil && t.sinkErr == nil {
		if err := t.sink.Write(e); err != nil {
			t.sinkErr = err
		}
	}
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % t.limit
}

// Total reports how many events were recorded (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteText renders the retained events, one per line.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Count returns how many events of kind k were recorded, including ones
// already evicted from the ring. O(1) and allocation-free: the per-kind
// totals are maintained by Record, so callers may poll it in loops.
func (t *Tracer) Count(k Kind) int {
	if t == nil || k >= numKinds {
		return 0
	}
	return int(t.counts[k])
}
