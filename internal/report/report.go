// Package report defines every message that crosses the wireless link for
// cache-validity purposes: the three invalidation-report representations
// (timestamp window, bit sequences, extended window with dummy record) and
// the uplink/downlink control messages of the checking and adaptive
// schemes.
//
// Each message knows its analytic size in bits, following the paper's §3
// formulas (ids take ceil(log2 N) bits, timestamps take bT bits). Those
// analytic sizes drive the channel model. Each message also has a real
// bit-packed codec; the encoded length equals the analytic size plus a
// small fixed framing overhead (kind tag and element counts), which the
// codec tests pin down exactly.
//
// A report is immutable once it reaches a client. The server finishes it
// (SetSeq, ApplyRecovery) before the broadcast, and the decoder finishes
// its own result before returning it; from delivery on, clients and the
// delivery layers only read it, however many clients, duplicates or
// reorderings share the value. The scheme client halves rely on this:
// they index a TS report once per broadcast, keyed by its pointer, so a
// report mutated or reused for another broadcast after delivery would be
// applied against a stale index.
package report

import (
	"errors"
	"fmt"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/db"
)

// Params holds the size-model parameters.
type Params struct {
	// N is the database size; ids cost ceil(log2 N) bits.
	N int
	// TSBits is the timestamp width bT. The wire codecs always carry
	// timestamps as 64-bit floats; set TSBits to 64 for bit-exact wire
	// accounting, or smaller to mimic a more compact timestamp.
	TSBits int
	// HeaderBits is the fixed per-message envelope (message type,
	// addressing) charged to uplink/downlink control messages.
	HeaderBits int
}

// IDBits reports ceil(log2 N).
func (p Params) IDBits() int { return bitio.BitsFor(p.N) }

// DefaultParams returns the size model used throughout the experiments.
func DefaultParams(n int) Params {
	return Params{N: n, TSBits: 64, HeaderBits: 32}
}

// Kind discriminates report representations.
type Kind uint8

// Report kinds.
const (
	// KindTS is the timestamp-window report of the TS algorithm.
	KindTS Kind = iota
	// KindBS is the bit-sequences report.
	KindBS
	// KindTSExt is an enlarged-window TS report carrying the AAW dummy
	// record.
	KindTSExt
	// KindAT is the amnesic-terminals report (ids only, last interval).
	KindAT
	// KindSIG is the combined-signatures report (Barbara–Imielinski SIG,
	// implemented as an extension beyond the paper's evaluation set).
	KindSIG
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTS:
		return "TS"
	case KindBS:
		return "BS"
	case KindTSExt:
		return "TS+w'"
	case KindAT:
		return "AT"
	case KindSIG:
		return "SIG"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IRName renders the kind in the paper's invalidation-report notation —
// IR(w) for the ordinary window report, IR(w') for the AAW
// enlarged-window report, IR(BS) for bit sequences — used by the
// observability timeline so a report-kind column reads like §3's figures.
func (k Kind) IRName() string {
	switch k {
	case KindTS:
		return "IR(w)"
	case KindTSExt:
		return "IR(w')"
	case KindBS:
		return "IR(BS)"
	case KindAT:
		return "IR(AT)"
	case KindSIG:
		return "IR(SIG)"
	default:
		return k.String()
	}
}

// RecoveryMarker is the recovery-epoch announcement a restarted server
// attaches to every report it broadcasts after a crash. The stateless
// server keeps the database durable, but its in-memory update-history
// window (and any pending feedback) dies with it; after restart it can
// only vouch for history from TrustFloor (the restart time) onward.
// Clients whose Tlb predates TrustFloor must not trust the report's
// coverage of the gap — they degrade per scheme (drop or check) instead
// of serving possibly-stale data.
type RecoveryMarker struct {
	// Epoch counts restarts; it changes whenever the marker's meaning
	// does, letting clients and traces tell recovery generations apart.
	Epoch int32
	// TrustFloor is the earliest time the report's history coverage is
	// trustworthy (the server's last restart).
	TrustFloor float64
}

// MarkerBits reports the analytic downlink cost of an attached marker:
// a 32-bit epoch plus one timestamp.
func MarkerBits(p Params) int { return 32 + p.TSBits }

// Frame is the header every invalidation report carries ahead of its
// body, whatever its kind.
type Frame struct {
	// Seq is the broadcast sequence number (see SeqOf).
	Seq uint32
	// Marker, when non-nil, is a restarted server's recovery-epoch
	// announcement (see RecoveryMarker).
	Marker *RecoveryMarker
}

func (f *Frame) frame() *Frame { return f }

// markerBits is the analytic cost of the attached marker, 0 without one.
// The sequence number is framing and costs nothing in the size model.
func (f *Frame) markerBits(p Params) int {
	if f.Marker == nil {
		return 0
	}
	return MarkerBits(p)
}

// Report is a broadcast invalidation report. Every implementation
// embeds a Frame, so the interface is closed to this package.
type Report interface {
	// Kind identifies the representation.
	Kind() Kind
	// Time is the broadcast timestamp Ti.
	Time() float64
	// SizeBits is the analytic size under the paper's formulas.
	SizeBits(p Params) int
	frame() *Frame
}

// TSReport is the timestamp-window report: the broadcast time plus one
// (id, last-update time) entry per item updated inside the window. When
// Dummy is non-nil the window was enlarged beyond the default w and the
// dummy record advertises the earliest Tlb the report can serve (AAW).
type TSReport struct {
	T float64
	// WindowStart: the report covers exactly the updates after this time.
	WindowStart float64
	Entries     []db.UpdateEntry
	Dummy       *DummyRecord
	Frame
}

// DummyRecord is AAW's in-band window-enlargement marker: a reserved id
// paired with the Tlb the enlarged window reaches back to.
type DummyRecord struct {
	Tlb float64
}

// Kind implements Report.
func (r *TSReport) Kind() Kind {
	if r.Dummy != nil {
		return KindTSExt
	}
	return KindTS
}

// Time implements Report.
func (r *TSReport) Time() float64 { return r.T }

// SizeBits implements Report: bT for the broadcast timestamp plus
// (log2 N + bT) per entry, plus one extra entry-sized dummy record when
// the window is enlarged (paper §3.1-3.2).
func (r *TSReport) SizeBits(p Params) int {
	per := p.IDBits() + p.TSBits
	size := p.TSBits + len(r.Entries)*per
	if r.Dummy != nil {
		size += per
	}
	return size + r.markerBits(p)
}

// BSReport wraps a bit-sequences structure.
type BSReport struct {
	T float64
	S *bitseq.Structure
	Frame
}

// Kind implements Report.
func (r *BSReport) Kind() Kind { return KindBS }

// Time implements Report.
func (r *BSReport) Time() float64 { return r.T }

// SizeBits implements Report: bT for the broadcast timestamp plus the
// structure (≈ 2N bits + bT log2 N).
func (r *BSReport) SizeBits(p Params) int {
	return p.TSBits + r.S.SizeBits(p.TSBits) + r.markerBits(p)
}

// ATReport is the amnesic-terminals report: only the ids updated during
// the last broadcast interval, with no per-item timestamps.
type ATReport struct {
	T   float64
	IDs []int32
	Frame
}

// Kind implements Report.
func (r *ATReport) Kind() Kind { return KindAT }

// Time implements Report.
func (r *ATReport) Time() float64 { return r.T }

// SizeBits implements Report.
func (r *ATReport) SizeBits(p Params) int {
	return p.TSBits + len(r.IDs)*p.IDBits() + r.markerBits(p)
}

// CheckRequest is the uplink message of the simple-checking scheme: the
// reconnecting client uploads every cached id plus its last-report
// timestamp, and the server answers with a ValidityReport.
type CheckRequest struct {
	Client int32
	// Seq matches a reply to its request: a client that abandoned a check
	// (e.g. by disconnecting mid-exchange) ignores stale replies.
	Seq int64
	Tlb float64
	IDs []int32
}

// SizeBits reports envelope + Tlb + one id per cached item.
func (m *CheckRequest) SizeBits(p Params) int {
	return p.HeaderBits + p.TSBits + len(m.IDs)*p.IDBits()
}

// Feedback is the adaptive schemes' uplink message: just the client's
// last-report timestamp.
type Feedback struct {
	Client int32
	Tlb    float64
}

// SizeBits reports envelope + Tlb. This single timestamp replacing the
// full cached-id upload is the paper's uplink saving.
func (m *Feedback) SizeBits(p Params) int { return p.HeaderBits + p.TSBits }

// ValidityReport answers a CheckRequest: bit i tells whether the i-th id
// of the request is still valid as of T.
type ValidityReport struct {
	T      float64
	Client int32
	// Seq echoes the request's sequence number (part of the envelope).
	Seq   int64
	Valid []bool
}

// SizeBits reports envelope + timestamp + one bit per checked id.
func (m *ValidityReport) SizeBits(p Params) int {
	return p.HeaderBits + p.TSBits + len(m.Valid)
}

// ErrBadMessage reports a malformed encoded message.
var ErrBadMessage = errors.New("report: malformed message")

// MarkerOf returns the recovery marker attached to r, or nil.
func MarkerOf(r Report) *RecoveryMarker { return r.frame().Marker }

// ApplyRecovery attaches marker m to r and censors history the restarted
// server cannot vouch for: TS entries at or before the trust floor are
// dropped (the rebuilt window starts at the floor), and an AAW dummy
// record reaching below the floor is stripped. BS/AT/SIG report bodies
// are rebuilt from durable metadata, so only the marker is attached; the
// client-side epoch gate supplies the conservative degradation.
func ApplyRecovery(r Report, m RecoveryMarker) {
	r.frame().Marker = &m
	rep, ok := r.(*TSReport)
	if !ok {
		return
	}
	// Entries are most-recent-first; cut at the first entry the restarted
	// server no longer remembers.
	for i, e := range rep.Entries {
		if e.TS <= m.TrustFloor {
			rep.Entries = rep.Entries[:i]
			break
		}
	}
	if rep.WindowStart < m.TrustFloor {
		rep.WindowStart = m.TrustFloor
	}
	if rep.Dummy != nil && rep.Dummy.Tlb < m.TrustFloor {
		rep.Dummy = nil
	}
}

// Framing overheads added by the self-describing codecs on top of the
// analytic sizes: a kind tag, a broadcast sequence number, a
// marker-present flag, and, where needed, an element count. The sequence
// number is framing — it is not part of the paper's analytic size model,
// so SizeBits (which drives the channel cost accounting) is unaffected.
const (
	kindTagBits    = 3
	seqBits        = 32
	markerFlagBits = 1
	countBits      = 24
)

// FramingBits reports the codec overhead for a report of kind k.
func FramingBits(k Kind) int {
	switch k {
	case KindTS, KindTSExt, KindAT:
		return kindTagBits + seqBits + markerFlagBits + countBits
	case KindSIG:
		return kindTagBits + seqBits + markerFlagBits + countBits + 8 // + the signature width field
	case KindBS:
		return kindTagBits + seqBits + markerFlagBits
	default:
		return kindTagBits + seqBits + markerFlagBits
	}
}

// SeqOf returns the broadcast sequence number carried in r's frame
// header. Every invalidation-report kind carries one; the server assigns
// them monotonically per broadcast so clients can fence against
// duplicated, reordered, and gapped deliveries (see SeqDelta).
func SeqOf(r Report) uint32 { return r.frame().Seq }

// SetSeq stamps the broadcast sequence number into r's frame header.
func SetSeq(r Report, seq uint32) { r.frame().Seq = seq }

// SeqDelta returns how far sequence number a is ahead of b under
// serial-number arithmetic (RFC 1982 style): the fixed-width field wraps,
// so the signed difference of the raw values is the distance. A result of
// 0 is a duplicate, a negative result an out-of-order (older) report, +1
// the in-order successor, and anything larger a gap — correct across the
// uint32 wraparound as long as fewer than 2^31 broadcasts separate the
// two observations.
func SeqDelta(a, b uint32) int32 { return int32(a - b) }

// Encode serializes r with bit-exact field widths (timestamps are 64-bit
// floats; use Params{TSBits: 64} for matching analytic sizes). The frame
// header — kind tag, broadcast sequence number, marker flag, optional
// marker — is common to every kind and written here; the per-kind body
// follows.
func Encode(r Report, p Params, w *bitio.Writer) {
	idBits := p.IDBits()
	w.WriteBits(uint64(r.Kind()), kindTagBits)
	w.WriteBits(uint64(SeqOf(r)), seqBits)
	marker := MarkerOf(r)
	w.WriteBool(marker != nil)
	if marker != nil {
		w.WriteBits(uint64(uint32(marker.Epoch)), 32)
		w.WriteFloat(marker.TrustFloor)
	}
	switch m := r.(type) {
	case *TSReport:
		w.WriteFloat(m.T)
		w.WriteBits(uint64(len(m.Entries)), countBits)
		for _, e := range m.Entries {
			w.WriteBits(uint64(e.ID), idBits)
			w.WriteFloat(e.TS)
		}
		if m.Dummy != nil {
			// The dummy record is a reserved id (all ones) + Tlb.
			w.WriteBits((1<<idBits)-1, idBits)
			w.WriteFloat(m.Dummy.Tlb)
		}
	case *BSReport:
		w.WriteFloat(m.T)
		m.S.Encode(w)
	case *ATReport:
		w.WriteFloat(m.T)
		w.WriteBits(uint64(len(m.IDs)), countBits)
		for _, id := range m.IDs {
			w.WriteBits(uint64(id), idBits)
		}
	case *SIGReport:
		encodeSIG(m, w)
	default:
		panic(fmt.Sprintf("report: cannot encode %T", r))
	}
}

// Decode parses a report previously produced by Encode. The window-start
// time of TS reports is not carried on the wire (clients derive it from
// the protocol parameters), so it is zero in the result — except after a
// recovery marker, which raises it to the trust floor like ApplyRecovery
// does on the sending side.
func Decode(p Params, r *bitio.Reader) (Report, error) {
	idBits := p.IDBits()
	kindRaw, err := r.ReadBits(kindTagBits)
	if err != nil {
		return nil, err
	}
	seq, err := r.ReadBits(seqBits)
	if err != nil {
		return nil, err
	}
	hasMarker, err := r.ReadBool()
	if err != nil {
		return nil, err
	}
	var marker *RecoveryMarker
	if hasMarker {
		epoch, err := r.ReadBits(32)
		if err != nil {
			return nil, err
		}
		floor, err := r.ReadFloat()
		if err != nil {
			return nil, err
		}
		marker = &RecoveryMarker{Epoch: int32(uint32(epoch)), TrustFloor: floor}
	}
	rep, err := decodeBody(Kind(kindRaw), p, idBits, r)
	if err != nil {
		return nil, err
	}
	SetSeq(rep, uint32(seq))
	if marker != nil {
		ApplyRecovery(rep, *marker)
	}
	return rep, nil
}

// decodeBody parses the per-kind payload after the common frame header.
func decodeBody(kind Kind, p Params, idBits int, r *bitio.Reader) (Report, error) {
	switch kind {
	case KindTS, KindTSExt:
		t, err := r.ReadFloat()
		if err != nil {
			return nil, err
		}
		count, err := r.ReadBits(countBits)
		if err != nil {
			return nil, err
		}
		rep := &TSReport{T: t}
		for i := uint64(0); i < count; i++ {
			id, err := r.ReadBits(idBits)
			if err != nil {
				return nil, err
			}
			ts, err := r.ReadFloat()
			if err != nil {
				return nil, err
			}
			rep.Entries = append(rep.Entries, db.UpdateEntry{ID: int32(id), TS: ts})
		}
		if kind == KindTSExt {
			id, err := r.ReadBits(idBits)
			if err != nil {
				return nil, err
			}
			if id != (1<<idBits)-1 {
				return nil, ErrBadMessage
			}
			tlb, err := r.ReadFloat()
			if err != nil {
				return nil, err
			}
			rep.Dummy = &DummyRecord{Tlb: tlb}
		}
		return rep, nil
	case KindBS:
		t, err := r.ReadFloat()
		if err != nil {
			return nil, err
		}
		s, err := bitseq.Decode(p.N, r)
		if err != nil {
			return nil, err
		}
		return &BSReport{T: t, S: s}, nil
	case KindAT:
		t, err := r.ReadFloat()
		if err != nil {
			return nil, err
		}
		count, err := r.ReadBits(countBits)
		if err != nil {
			return nil, err
		}
		rep := &ATReport{T: t}
		for i := uint64(0); i < count; i++ {
			id, err := r.ReadBits(idBits)
			if err != nil {
				return nil, err
			}
			rep.IDs = append(rep.IDs, int32(id))
		}
		return rep, nil
	case KindSIG:
		return decodeSIG(r)
	default:
		return nil, ErrBadMessage
	}
}

// CorruptDecode models a corrupted-in-flight report: it encodes r into w
// (resetting it first), then attempts to decode the bitstream truncated
// by its final bit — the way a frame whose checksum fails looks to the
// receiver. The result is always a decode error, never a silently wrong
// report; callers must surface (count, trace) the returned error.
func CorruptDecode(r Report, p Params, w *bitio.Writer) error {
	w.Reset()
	Encode(r, p, w)
	rd := bitio.NewReader(w.Bytes(), w.Len()-1)
	if _, err := Decode(p, rd); err != nil {
		return err
	}
	// Every codec path reads through the last bit of its frame, so a
	// truncated stream cannot decode; reaching here means a codec
	// regression, reported rather than ignored.
	return ErrBadMessage
}
