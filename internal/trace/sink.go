package trace

import (
	"fmt"
	"io"
	"strconv"
)

// Sink consumes every event a Tracer records, in order and at full
// fidelity — unlike the ring buffer, nothing is evicted. Attach one with
// Tracer.SetSink to stream a run's complete protocol history (e.g. to a
// JSONL file) while the ring keeps serving the "last N events" view.
//
// Sink implementations are called synchronously from Record on the
// simulation's hot path; they must not call back into the simulator.
type Sink interface {
	// Write consumes one event. A returned error stops further sink
	// writes; the tracer remembers the first one (Tracer.SinkErr).
	Write(e Event) error
}

// SetSink attaches s to the tracer and returns the tracer for chaining.
// Events filtered out by the kind mask (Only) never reach the sink.
// Passing nil detaches. No-op on a nil tracer.
func (t *Tracer) SetSink(s Sink) *Tracer {
	if t == nil {
		return nil
	}
	t.sink = s
	t.sinkErr = nil
	return t
}

// AddSink attaches s alongside any sink already present: the existing
// sink keeps receiving every event, and s receives them too, in
// attachment order. With no prior sink it behaves like SetSink. This is
// how a span assembler chains behind a user-supplied JSONL export
// without either consumer losing events. No-op on a nil tracer or a nil
// sink.
func (t *Tracer) AddSink(s Sink) *Tracer {
	if t == nil || s == nil {
		return t
	}
	if t.sink == nil {
		return t.SetSink(s)
	}
	if m, ok := t.sink.(*MultiSink); ok {
		m.sinks = append(m.sinks, s)
		return t
	}
	return t.SetSink(&MultiSink{sinks: []Sink{t.sink, s}})
}

// MultiSink fans every event out to an ordered list of sinks, stopping
// at (and returning) the first write error.
type MultiSink struct {
	sinks []Sink
}

// Write implements Sink.
func (m *MultiSink) Write(e Event) error {
	for _, s := range m.sinks {
		if err := s.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// SinkErr reports the first error the attached sink returned, if any.
// After an error the sink receives no further events.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	return t.sinkErr
}

// Flush writes the retained ring events (oldest first) to s, returning
// the first write error. It is the shared dump path for CLI output: a
// post-run "last N events" dump and a streaming export differ only in
// when the sink sees the events.
func (t *Tracer) Flush(s Sink) error {
	for _, e := range t.Events() {
		if err := s.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// TextSink renders events one per line in Event.String's human-readable
// format.
type TextSink struct {
	w io.Writer
}

// NewTextSink creates a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Write implements Sink.
func (s *TextSink) Write(e Event) error {
	_, err := fmt.Fprintln(s.w, e)
	return err
}

// JSONLSink streams events as JSON Lines: one self-contained object per
// event, with the kind rendered by name so the file is greppable and
// stable across kind renumbering. Timestamps round-trip exactly
// (strconv 'g' with full precision).
//
// The sink does not buffer; wrap w in a bufio.Writer (and flush it after
// the run) when writing to a file.
type JSONLSink struct {
	w   io.Writer
	buf []byte
}

// NewJSONLSink creates a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Write implements Sink.
func (s *JSONLSink) Write(e Event) error {
	b := s.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...) // kind names are JSON-safe ([a-z()0-9-])
	b = append(b, `","client":`...)
	b = strconv.AppendInt(b, int64(e.Client), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, e.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, e.B, 10)
	b = append(b, '}', '\n')
	s.buf = b
	_, err := s.w.Write(b)
	return err
}
