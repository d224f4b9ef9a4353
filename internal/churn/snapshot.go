package churn

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"mobicache/internal/bitio"
	"mobicache/internal/cache"
)

// Snapshot is a client cache checkpoint as persisted across a process
// crash: the recency-ordered cache entries, the validation timestamp the
// contents are good through, the recovery epoch the client had seen, and
// the instant the checkpoint was written. The wire form is a bit-packed
// stream (EncodeSnapshot) with a magic number, a codec-epoch tag and a
// trailing CRC, so a restart can verifiably reject anything it cannot
// trust instead of silently serving from it.
type Snapshot struct {
	// Epoch is the server recovery epoch the client had last seen when
	// the snapshot was written (core.ClientState.Epoch).
	Epoch int32
	// PersistAt is the server-time instant the checkpoint was written;
	// restore compares its age against Config.SnapshotTTL.
	PersistAt float64
	// Tlb is the validation timestamp the cached contents were good
	// through at persist time.
	Tlb float64
	// Entries are the cached items, most recently used first.
	Entries []cache.Entry
}

// Snapshot rejection errors: decode and admission failures a restart
// maps back to a cold start. Wrapped errors carry detail; match with
// errors.Is.
var (
	// ErrSnapshotCorrupt: the bitstream is truncated, fails its CRC, or
	// decodes to structural nonsense.
	ErrSnapshotCorrupt = errors.New("churn: snapshot corrupt")
	// ErrSnapshotEpoch: the codec-epoch tag names an incompatible
	// snapshot format generation.
	ErrSnapshotEpoch = errors.New("churn: snapshot codec epoch mismatch")
	// ErrSnapshotStale: the checkpoint is older than the trust TTL.
	ErrSnapshotStale = errors.New("churn: snapshot stale")
	// ErrSnapshotInvalid: the fields are individually well-formed but
	// mutually inconsistent (a Tlb after the persist instant, a persist
	// instant in the future).
	ErrSnapshotInvalid = errors.New("churn: snapshot inconsistent")
)

// Snapshot rejection reasons, recorded in the SnapshotReject trace
// event's A field.
const (
	RejectCorrupt = 1 // undecodable: truncated, bad CRC, bad magic or codec epoch
	RejectStale   = 2 // older than the trust TTL
	RejectInvalid = 3 // decoded fields mutually inconsistent
)

// RejectReason maps a rejection error to its trace reason code.
func RejectReason(err error) int {
	switch {
	case errors.Is(err, ErrSnapshotStale):
		return RejectStale
	case errors.Is(err, ErrSnapshotInvalid):
		return RejectInvalid
	default:
		return RejectCorrupt
	}
}

// snapMagic opens every snapshot; SnapshotCodecEpoch is the format
// generation tag — a snapshot written by a different generation is
// rejected outright (the "epoch-tagged" half of the trust contract; the
// recovery-epoch field is the other half).
const (
	snapMagic          = 0xCA5E
	SnapshotCodecEpoch = 1
)

// Field widths. Everything before the CRC is zero-padded to a byte
// boundary so the checksum covers whole bytes of payload.
const (
	magicBits   = 16
	codecBits   = 8
	epochBits   = 32
	countBits   = 32
	idBits      = 32
	versionBits = 32
	crcBits     = 32

	headerBits = magicBits + codecBits + epochBits + 64 + 64 + countBits
	entryBits  = idBits + 64 + versionBits
)

// minSnapshotBits is the size of an empty snapshot: header, padding to a
// byte boundary, CRC.
const minSnapshotBits = (headerBits+7)/8*8 + crcBits

// EncodeSnapshot packs s into w MSB-first:
//
//	magic(16) codecEpoch(8) recoveryEpoch(32) persistAt(f64) tlb(f64)
//	count(32) count×[id(32) ts(f64) version(32)] pad-to-byte crc32(32)
//
// The CRC (IEEE) covers every payload byte including the zero padding,
// so any single flipped bit — header, entry, or pad — fails verification.
// Callers pass a pooled writer (bitio.GetWriter) and copy the bytes out
// before returning it.
//
// Hot path: the snapshot encode path runs at every warm-persisting crash; the
// churn adversary reuses its scratch entry slice and persisted buffers,
// so steady-state encodes allocate nothing.
//
//mobicache:hot
func EncodeSnapshot(s *Snapshot, w *bitio.Writer) {
	w.WriteBits(snapMagic, magicBits)
	w.WriteBits(SnapshotCodecEpoch, codecBits)
	w.WriteBits(uint64(uint32(s.Epoch)), epochBits)
	w.WriteFloat(s.PersistAt)
	w.WriteFloat(s.Tlb)
	w.WriteBits(uint64(uint32(len(s.Entries))), countBits)
	for i := range s.Entries {
		e := &s.Entries[i]
		w.WriteBits(uint64(uint32(e.ID)), idBits)
		w.WriteFloat(e.TS)
		w.WriteBits(uint64(uint32(e.Version)), versionBits)
	}
	if pad := (8 - w.Len()%8) % 8; pad > 0 {
		w.WriteBits(0, pad)
	}
	w.WriteBits(uint64(crc32.ChecksumIEEE(w.Bytes())), crcBits)
}

// DecodeSnapshot unpacks and verifies a snapshot bitstream: checksum
// first (it covers everything), then structure — magic, codec epoch, an
// entry count bounded by maxItems (the cache capacity the snapshot must
// fit), distinct non-negative ids, finite timestamps, exact length and
// zero padding. It never panics on arbitrary input; every failure is a
// wrapped rejection error. Semantic admission (age, field consistency)
// is Config.Admit's job.
func DecodeSnapshot(buf []byte, nbits int, maxItems int) (*Snapshot, error) {
	if nbits < minSnapshotBits || nbits%8 != 0 || nbits > len(buf)*8 {
		return nil, fmt.Errorf("%w: %d bits", ErrSnapshotCorrupt, nbits)
	}
	n := nbits / 8
	payload := buf[: n-4 : n-4]
	var got uint32
	for _, b := range buf[n-4 : n] {
		got = got<<8 | uint32(b)
	}
	if want := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrSnapshotCorrupt, got, want)
	}
	r := bitio.NewReader(payload, len(payload)*8)
	magic, err := r.ReadBits(magicBits)
	if err != nil || magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSnapshotCorrupt, magic)
	}
	codec, err := r.ReadBits(codecBits)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if codec != SnapshotCodecEpoch {
		return nil, fmt.Errorf("%w: epoch %d, want %d", ErrSnapshotEpoch, codec, SnapshotCodecEpoch)
	}
	s := &Snapshot{}
	epoch, err := r.ReadBits(epochBits)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	s.Epoch = int32(uint32(epoch))
	if s.PersistAt, err = r.ReadFloat(); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if s.Tlb, err = r.ReadFloat(); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if s.Epoch < 0 || math.IsNaN(s.PersistAt) || math.IsInf(s.PersistAt, 0) ||
		math.IsNaN(s.Tlb) || math.IsInf(s.Tlb, 0) {
		return nil, fmt.Errorf("%w: non-finite header fields", ErrSnapshotCorrupt)
	}
	count, err := r.ReadBits(countBits)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if count > uint64(maxItems) {
		return nil, fmt.Errorf("%w: %d entries beyond capacity %d", ErrSnapshotCorrupt, count, maxItems)
	}
	seen := make(map[int32]bool, count)
	s.Entries = make([]cache.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e cache.Entry
		id, err := r.ReadBits(idBits)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrSnapshotCorrupt, i)
		}
		e.ID = int32(uint32(id))
		if e.TS, err = r.ReadFloat(); err != nil {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrSnapshotCorrupt, i)
		}
		v, err := r.ReadBits(versionBits)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrSnapshotCorrupt, i)
		}
		e.Version = int32(uint32(v))
		if e.ID < 0 || e.Version < 0 || math.IsNaN(e.TS) || math.IsInf(e.TS, 0) {
			return nil, fmt.Errorf("%w: entry %d fields out of range", ErrSnapshotCorrupt, i)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("%w: duplicate id %d", ErrSnapshotCorrupt, e.ID)
		}
		seen[e.ID] = true
		s.Entries = append(s.Entries, e)
	}
	if r.Remaining() >= 8 {
		// Payload bytes past the entries: the declared count undersells
		// the stream — reject rather than silently ignore trailing state.
		return nil, fmt.Errorf("%w: %d trailing payload bits", ErrSnapshotCorrupt, r.Remaining())
	}
	if pad, err := r.ReadBits(r.Remaining()); err != nil || pad != 0 {
		return nil, fmt.Errorf("%w: nonzero padding", ErrSnapshotCorrupt)
	}
	return s, nil
}

// Admit applies the trust contract to a decoded snapshot at restore time
// now: the checkpoint must not come from the future, must not claim
// validity past its own persist instant, and must be younger than the
// TTL. Order matters for the reported reason — an aged checkpoint is
// "stale" even when the aging also broke the Tlb ordering.
func (c Config) Admit(s *Snapshot, now float64) error {
	switch {
	case s.PersistAt > now:
		return fmt.Errorf("%w: persisted at %v, restored at %v", ErrSnapshotInvalid, s.PersistAt, now)
	case now-s.PersistAt > c.SnapshotTTL:
		return fmt.Errorf("%w: age %v beyond TTL %v", ErrSnapshotStale, now-s.PersistAt, c.SnapshotTTL)
	case s.Tlb > s.PersistAt:
		return fmt.Errorf("%w: Tlb %v after persist instant %v", ErrSnapshotInvalid, s.Tlb, s.PersistAt)
	}
	return nil
}
