// Package bitio implements bit-granular serialization. Invalidation
// reports in the paper are sized in bits (item ids take ceil(log2 N) bits,
// timestamps bT bits), so byte-aligned encodings would distort the channel
// cost model. The Writer and Reader here pack fields MSB-first into a byte
// slice; the measured encoded length of every report equals its analytic
// size formula exactly.
package bitio

import (
	"errors"
	"math"
	"sync"
)

// ErrShortBuffer is returned when a Reader runs out of bits.
var ErrShortBuffer = errors.New("bitio: read past end of buffer")

// Writer packs bit fields MSB-first.
type Writer struct {
	buf  []byte
	nbit int // bits written
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// writerPool recycles Writers (and, more to the point, their byte
// buffers) across encode calls. It is shared by all simulations in the
// process: parallel sweep workers encode reports concurrently, and a
// per-call allocation here is the kind of GC load that flattens the
// sweep's scaling curve.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns an empty Writer from the package pool. Pair it with
// PutWriter when the encoded bytes are no longer referenced. Safe for
// concurrent use; a Writer's contents never leak between users because
// every Writer leaves the pool Reset.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the package pool. The caller must not use w, or
// any slice obtained from w.Bytes, after the call.
func PutWriter(w *Writer) {
	if w == nil {
		return
	}
	writerPool.Put(w)
}

// Reset discards all written bits, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Len reports the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed buffer; the final byte is zero-padded. The
// returned slice aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBits writes the width least-significant bits of v, MSB first.
// It panics for width outside [0, 64].
//
// Hot path: one call per encoded field; pooled writers make the append
// below a capacity-reusing write in steady state.
//
//mobicache:hot
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic("bitio: invalid width")
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	for width > 0 {
		if w.nbit%8 == 0 {
			//lint:allow hotalloc pooled writers keep capacity across Reset, so steady-state appends reuse the backing array
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		take := width
		if take > free {
			take = free
		}
		chunk := byte(v >> (width - take))
		w.buf[len(w.buf)-1] |= chunk << (free - take)
		w.nbit += take
		width -= take
	}
}

// WriteBool writes a single bit.
//
// Hot path: same contract as WriteBits.
//
//mobicache:hot
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// WriteFloat writes an IEEE-754 double in 64 bits.
//
// Hot path: same contract as WriteBits.
//
//mobicache:hot
func (w *Writer) WriteFloat(f float64) { w.WriteBits(math.Float64bits(f), 64) }

// Reader unpacks bit fields written by Writer.
type Reader struct {
	buf  []byte
	pos  int // bit cursor
	nbit int // total bits available
}

// NewReader reads from buf, exposing nbits bits (nbits <= len(buf)*8).
// Pass len(buf)*8 to read a whole byte slice.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 || nbits > len(buf)*8 {
		panic("bitio: nbits out of range")
	}
	return &Reader{buf: buf, nbit: nbits}
}

// Remaining reports how many unread bits are left.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBits reads width bits MSB-first, returning them in the low bits of
// the result. It panics for width outside [0, 64].
//
// Hot path: one call per decoded field; the short-buffer error is a
// package-level sentinel, so reads never allocate.
//
//mobicache:hot
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic("bitio: invalid width")
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortBuffer
	}
	var v uint64
	for width > 0 {
		avail := 8 - r.pos%8
		take := width
		if take > avail {
			take = avail
		}
		b := r.buf[r.pos/8]
		chunk := (b >> (avail - take)) & ((1 << take) - 1)
		v = v<<take | uint64(chunk)
		r.pos += take
		width -= take
	}
	return v, nil
}

// ReadBool reads a single bit.
//
// Hot path: same contract as ReadBits.
//
//mobicache:hot
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadFloat reads an IEEE-754 double.
//
// Hot path: same contract as ReadBits.
//
//mobicache:hot
func (r *Reader) ReadFloat() (float64, error) {
	v, err := r.ReadBits(64)
	return math.Float64frombits(v), err
}

// BitsFor reports the number of bits needed to represent values in [0, n),
// i.e. ceil(log2 n), with a minimum of 1. This is the paper's id width
// for an n-item database.
func BitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
