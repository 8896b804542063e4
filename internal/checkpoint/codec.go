// Package checkpoint provides the codec and container format for
// deterministic simulation snapshots: a sequential fixed-width binary
// writer/reader pair, a versioned and checksummed file envelope, and a
// config-digest helper.
//
// The package deliberately imports nothing but the standard library, so
// every simulation layer (des, netsim, topology, the protocol packages,
// shard, experiments) can depend on it without cycles. A snapshot is a
// flat byte stream: each component writes its numeric state in a fixed
// field order on save and consumes the same order on restore — no field
// names, no reflection, no pointers. A save streams: StreamFile hands
// the components a Writer over one fixed-size chunk that is flushed to
// the snapshot's temporary file whenever it fills, folding each flushed
// chunk into the envelope's CRC-32C, so no save holds the whole payload.
// Versioning is coarse by design: the envelope carries a codec version
// and the saver's config digest, and a reader that does not match both
// refuses the file instead of guessing.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// TimerState is the portable identity of one pending DES timer: its
// firing time, causal scheduling key and sequence number. OK reports
// whether the timer was live at capture; a dead timer round-trips as
// the zero TimerState. The des package produces these at save time and
// re-arms events from them at restore, so the restored wheel fires in
// exactly the original (at, key, seq) total order.
type TimerState struct {
	OK      bool
	At, Key float64
	Seq     uint64
}

// Writer appends fixed-width little-endian primitives to a buffer.
// The zero value is ready to use and keeps the whole payload in memory.
// A Writer with a sink (see StreamFile) instead keeps one chunk: a field
// that would overflow it flushes the chunk to the sink first. A sink
// error is sticky: later writes are dropped and flush reports it.
type Writer struct {
	buf  []byte
	sink io.Writer
	err  error
}

// Bytes returns the bytes not yet flushed: for a Writer without a sink,
// the whole payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes Bytes returns.
func (w *Writer) Len() int { return len(w.buf) }

// flush hands the buffered bytes to the sink, if there is one, and
// returns the first sink error.
func (w *Writer) flush() error {
	if w.sink != nil {
		if w.err == nil && len(w.buf) > 0 {
			_, w.err = w.sink.Write(w.buf)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

// room flushes a sink's chunk when n more bytes would not fit in it and
// returns the buffer to append to.
func (w *Writer) room(n int) []byte {
	if w.sink != nil && len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	return w.buf
}

// put appends raw bytes, flushing a sink's chunk each time it fills.
func put[T string | []byte](w *Writer, p T) {
	for w.sink != nil && len(w.buf)+len(p) > cap(w.buf) {
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:cap(w.buf)]
		p = p[n:]
		w.flush()
	}
	w.buf = append(w.buf, p...)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.room(1), v) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.room(4), v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.room(8), v) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 by its IEEE-754 bits, so every value — signed
// zeros and NaN payloads included — round-trips exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	put(w, s)
}

// Timer writes a TimerState.
func (w *Writer) Timer(t TimerState) {
	w.Bool(t.OK)
	w.F64(t.At)
	w.F64(t.Key)
	w.U64(t.Seq)
}

// Reader consumes a payload written by Writer, in the same field order.
// Errors are sticky: the first short read poisons the reader, every
// later call returns zero values, and Err reports the failure — so
// restore code reads linearly and checks once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over the payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) err0(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("checkpoint: truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return true
	}
	return false
}

// Err returns the sticky decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail poisons the reader with a restore-side validation error, so a
// structural mismatch surfaces exactly like a truncation.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err0(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err0(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err0(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	if r.err != nil || r.err0(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Timer reads a TimerState.
func (r *Reader) Timer() TimerState {
	var t TimerState
	t.OK = r.Bool()
	t.At = r.F64()
	t.Key = r.F64()
	t.Seq = r.U64()
	return t
}

// Count reads a non-negative element count and validates it against a
// conservative bound (each element needs at least one byte of payload),
// so a corrupted length cannot drive a huge allocation.
func (r *Reader) Count() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining() {
		r.Fail("implausible element count %d with %d bytes remaining", n, r.Remaining())
		return 0
	}
	return n
}
