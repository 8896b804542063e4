// Package checkpoint provides the codec and container format for
// deterministic simulation snapshots: a sequential fixed-width binary
// writer/reader pair, the two-direction Codec over them, a versioned and
// checksummed file envelope, and a config-digest helper.
//
// The package deliberately imports nothing but the standard library, so
// every simulation layer (des, netsim, topology, the protocol packages,
// shard, experiments) can depend on it without cycles. A snapshot is a
// flat byte stream of numeric state in a fixed field order — no field
// names, no reflection, no pointers. A component lists its snapshot
// fields once, in one method over a Codec: a save writes each field, a
// restore overwrites each with the value read back, so the two
// directions cannot drift out of step. A save streams: StreamFile hands
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
	"slices"
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

// Codec walks a component's snapshot fields in one direction, so the
// component lists them once: over a Writer (a save) each field method
// writes the value its pointer holds, over a Reader (a restore) it
// overwrites that value with the one read back. A Codec is two pointers
// and is passed by value; its errors are the sticky errors of the
// Writer or Reader below it.
type Codec struct {
	w *Writer
	r *Reader
}

// Codec returns a saving codec over w.
func (w *Writer) Codec() Codec { return Codec{w: w} }

// Codec returns a restoring codec over r.
func (r *Reader) Codec() Codec { return Codec{r: r} }

// Saving reports whether the codec writes (a save) rather than reads.
func (c Codec) Saving() bool { return c.w != nil }

// Err returns the first error: a sink error or Fail on a save, the
// decoding or validation error on a restore.
func (c Codec) Err() error {
	if c.w != nil {
		return c.w.err
	}
	return c.r.err
}

// Fail records a validation error: a restore fails as on a truncation,
// and a save stops flushing and reports the error when it completes.
func (c Codec) Fail(format string, args ...any) {
	if c.w == nil {
		c.r.Fail(format, args...)
	} else if c.w.err == nil {
		c.w.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// U8 saves or restores one byte.
func (c Codec) U8(v *uint8) {
	if c.w != nil {
		c.w.U8(*v)
	} else {
		*v = c.r.U8()
	}
}

// Bool saves or restores a boolean.
func (c Codec) Bool(v *bool) {
	if c.w != nil {
		c.w.Bool(*v)
	} else {
		*v = c.r.Bool()
	}
}

// U64 saves or restores a uint64.
func (c Codec) U64(v *uint64) {
	if c.w != nil {
		c.w.U64(*v)
	} else {
		*v = c.r.U64()
	}
}

// I64 saves or restores an int64.
func (c Codec) I64(v *int64) {
	if c.w != nil {
		c.w.I64(*v)
	} else {
		*v = c.r.I64()
	}
}

// Int saves or restores an int as an int64.
func (c Codec) Int(v *int) {
	if c.w != nil {
		c.w.Int(*v)
	} else {
		*v = c.r.Int()
	}
}

// F64 saves or restores a float64 by its IEEE-754 bits.
func (c Codec) F64(v *float64) {
	if c.w != nil {
		c.w.F64(*v)
	} else {
		*v = c.r.F64()
	}
}

// Timer saves or restores a TimerState.
func (c Codec) Timer(t *TimerState) {
	if c.w != nil {
		c.w.Timer(*t)
	} else {
		*t = c.r.Timer()
	}
}

// Same pairs a saved value with the rebuilt one: a save writes v, a
// restore reads the saved value and fails, naming what, unless it
// equals v. It reports whether the codec is still error-free.
func (c Codec) Same(v int, what string) bool {
	if c.w != nil {
		c.w.Int(v)
		return c.w.err == nil
	}
	if got := c.r.Int(); c.r.err == nil && got != v {
		c.r.Fail("%s: snapshot has %d, rebuilt has %d", what, got, v)
	}
	return c.r.err == nil
}

// Len saves the element count n and returns it, or on a restore reads
// a count bounded as Reader.Count bounds it.
func (c Codec) Len(n int) int {
	if c.w != nil {
		c.w.Int(n)
		return n
	}
	return c.r.Count()
}

// Resize returns s with n elements for a field walk: a save passes
// len(s) and gets s back, and a restore reuses s's array when it holds
// n. The elements are left for the walk to fill.
func Resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
