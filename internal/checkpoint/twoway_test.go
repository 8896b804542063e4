package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// fields holds one value of every kind the Codec walks.
type fields struct {
	u8  uint8
	b   bool
	u64 uint64
	i64 int64
	n   int
	f   float64
	tm  TimerState
	xs  []float64
}

// walk lists the fields once, the way a component's Checkpoint does.
func (v *fields) walk(c Codec) {
	c.U8(&v.u8)
	c.Bool(&v.b)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Int(&v.n)
	c.F64(&v.f)
	c.Timer(&v.tm)
	v.xs = Resize(v.xs, c.Len(len(v.xs)))
	for i := range v.xs {
		c.F64(&v.xs[i])
	}
}

// A save through the Codec writes exactly what the Writer's primitives
// write in the same order, and a restore through it reads every kind
// back into a zeroed twin.
func TestCodecRoundTrip(t *testing.T) {
	want := fields{
		u8: 0xab, b: true, u64: 0x0123456789abcdef, i64: -42, n: -7,
		f:  math.Copysign(0, -1),
		tm: TimerState{OK: true, At: 1.5, Key: 0.25, Seq: 99},
		xs: []float64{math.Inf(-1), 2.5, math.NaN()},
	}
	var w Writer
	c := w.Codec()
	if !c.Saving() {
		t.Fatal("a Writer's codec does not save")
	}
	v := want
	v.walk(c)
	if err := c.Err(); err != nil {
		t.Fatalf("save: %v", err)
	}

	var ref Writer
	ref.U8(want.u8)
	ref.Bool(want.b)
	ref.U64(want.u64)
	ref.I64(want.i64)
	ref.Int(want.n)
	ref.F64(want.f)
	ref.Timer(want.tm)
	ref.Int(len(want.xs))
	for _, x := range want.xs {
		ref.F64(x)
	}
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("codec save wrote %x, primitives write %x", w.Bytes(), ref.Bytes())
	}

	r := NewReader(w.Bytes())
	rc := r.Codec()
	if rc.Saving() {
		t.Fatal("a Reader's codec saves")
	}
	got := fields{xs: make([]float64, 0, 8)}
	got.walk(rc)
	if err := rc.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("restore left %d bytes", r.Remaining())
	}
	if got.u8 != want.u8 || got.b != want.b || got.u64 != want.u64 || got.i64 != want.i64 ||
		got.n != want.n || got.tm != want.tm || math.Float64bits(got.f) != math.Float64bits(want.f) {
		t.Fatalf("restored %+v, saved %+v", got, want)
	}
	if len(got.xs) != len(want.xs) || cap(got.xs) != 8 {
		t.Fatalf("restored %d samples in cap %d, want %d in the reused cap 8", len(got.xs), cap(got.xs), len(want.xs))
	}
	for i := range want.xs {
		if math.Float64bits(got.xs[i]) != math.Float64bits(want.xs[i]) {
			t.Fatalf("sample %d: restored %v, saved %v", i, got.xs[i], want.xs[i])
		}
	}
}

// Same writes the value on a save; a restore passes on the saved value
// and fails, naming the pairing, on any other.
func TestCodecSame(t *testing.T) {
	var w Writer
	if !w.Codec().Same(7, "flow") {
		t.Fatal("save reported a failure")
	}
	if ok := NewReader(w.Bytes()).Codec().Same(7, "flow"); !ok {
		t.Fatal("restore of the saved value failed")
	}
	r := NewReader(w.Bytes())
	c := r.Codec()
	if c.Same(8, "tcp sender flow") {
		t.Fatal("restore against another value passed")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "tcp sender flow") ||
		!strings.Contains(err.Error(), "snapshot has 7, rebuilt has 8") {
		t.Fatalf("Err = %v", err)
	}
	// A truncated read fails without a pairing message of its own.
	tr := NewReader(nil).Codec()
	if tr.Same(0, "flow") || !strings.Contains(tr.Err().Error(), "truncated") {
		t.Fatalf("truncated Same: %v", tr.Err())
	}
}

// Len returns the count on both sides and refuses, on a restore, a count
// the remaining payload cannot hold.
func TestCodecLen(t *testing.T) {
	var w Writer
	if n := w.Codec().Len(2); n != 2 {
		t.Fatalf("save Len = %d", n)
	}
	w.U8(0)
	w.U8(0)
	if n := NewReader(w.Bytes()).Codec().Len(0); n != 2 {
		t.Fatalf("restore Len = %d, want the saved 2", n)
	}
	var big Writer
	big.Int(1 << 40)
	c := NewReader(big.Bytes()).Codec()
	if n := c.Len(0); n != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), "implausible element count") {
		t.Fatalf("implausible Len = %d, err %v", n, c.Err())
	}
}

// Fail is sticky in both directions: a restore fails like a truncation,
// and a save reports the error through Err and when its stream closes.
func TestCodecFail(t *testing.T) {
	rc := NewReader([]byte{1}).Codec()
	rc.Fail("bad %s", "tag")
	rc.Fail("second")
	var u8 uint8
	rc.U8(&u8)
	if err := rc.Err(); err == nil || err.Error() != "checkpoint: bad tag" || u8 != 0 {
		t.Fatalf("restore Err = %v, read %d", err, u8)
	}

	var sink bytes.Buffer
	err := stream(&sink, make([]byte, 0, 16), 1, func(w *Writer) {
		c := w.Codec()
		c.Fail("save %d", 1)
		c.Fail("second")
		if c.Err() == nil || c.Err().Error() != "checkpoint: save 1" {
			t.Errorf("save Err = %v", c.Err())
		}
	})
	if err == nil || err.Error() != "checkpoint: save 1" {
		t.Fatalf("stream returned %v", err)
	}
}

// A save's Err is the sink's error once a flush has failed.
func TestCodecSaveErrIsSinkError(t *testing.T) {
	boom := errors.New("disk full")
	w := Writer{buf: make([]byte, 0, 8), sink: failSink{boom}}
	c := w.Codec()
	for i := uint64(0); i < 4; i++ {
		c.U64(&i)
	}
	if !errors.Is(c.Err(), boom) {
		t.Fatalf("Err = %v, want the sink error", c.Err())
	}
	if c.Same(1, "flow") {
		t.Fatal("Same reported success after a sink error")
	}
}

type failSink struct{ err error }

func (s failSink) Write([]byte) (int, error) { return 0, s.err }
