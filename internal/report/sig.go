package report

import "mobicache/internal/bitio"

// SIGReport is a combined-signatures invalidation report (Barbara &
// Imielinski's SIG method, an extension beyond the paper's evaluated
// set). Each combined signature is the XOR of per-item signatures over a
// pseudo-random subset of the database; a client compares the broadcast
// against the combined signatures it last heard and invalidates cached
// items all of whose subsets mismatch.
type SIGReport struct {
	T float64
	// Sigs holds the K combined signatures; only the low SigBits of each
	// are meaningful.
	Sigs []uint64
	// SigBits is the signature width in bits.
	SigBits int
	Frame
}

// Kind implements Report.
func (r *SIGReport) Kind() Kind { return KindSIG }

// Time implements Report.
func (r *SIGReport) Time() float64 { return r.T }

// SizeBits implements Report: bT plus K signatures of SigBits each.
func (r *SIGReport) SizeBits(p Params) int {
	return p.TSBits + len(r.Sigs)*r.SigBits + r.markerBits(p)
}

// encodeSIG serializes a SIG report body after the common frame header
// (called from Encode).
func encodeSIG(m *SIGReport, w *bitio.Writer) {
	w.WriteFloat(m.T)
	w.WriteBits(uint64(m.SigBits), 8)
	w.WriteBits(uint64(len(m.Sigs)), countBits)
	for _, s := range m.Sigs {
		w.WriteBits(s, m.SigBits)
	}
}

// decodeSIG parses a SIG report body after the kind tag.
func decodeSIG(r *bitio.Reader) (*SIGReport, error) {
	t, err := r.ReadFloat()
	if err != nil {
		return nil, err
	}
	bits, err := r.ReadBits(8)
	if err != nil {
		return nil, err
	}
	if bits == 0 || bits > 64 {
		return nil, ErrBadMessage
	}
	count, err := r.ReadBits(countBits)
	if err != nil {
		return nil, err
	}
	rep := &SIGReport{T: t, SigBits: int(bits)}
	for i := uint64(0); i < count; i++ {
		s, err := r.ReadBits(rep.SigBits)
		if err != nil {
			return nil, err
		}
		rep.Sigs = append(rep.Sigs, s)
	}
	return rep, nil
}
