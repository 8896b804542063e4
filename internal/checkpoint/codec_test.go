package checkpoint

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-7)
	w.F64(3.141592653589793)
	w.F64(math.Inf(-1))
	w.F64(math.Copysign(0, -1))
	w.Str("hello, checkpoint")
	w.Str("")
	w.Timer(TimerState{OK: true, At: 1.5, Key: 0.25, Seq: 99})
	w.Timer(TimerState{})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.141592653589793 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.F64(); got != 0 || !math.Signbit(got) {
		t.Errorf("F64 -0 = %v signbit=%v", got, math.Signbit(got))
	}
	if got := r.Str(); got != "hello, checkpoint" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := r.Timer(); got != (TimerState{OK: true, At: 1.5, Key: 0.25, Seq: 99}) {
		t.Errorf("Timer = %+v", got)
	}
	if got := r.Timer(); got != (TimerState{}) {
		t.Errorf("zero Timer = %+v", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d after full read", r.Remaining())
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	var w Writer
	w.U32(7)
	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0 {
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every later read stays zero and does not clear the error.
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("post-error Str = %q", got)
	}
	if r.Err() == nil {
		t.Fatal("error was cleared")
	}
}

func TestReaderFail(t *testing.T) {
	r := NewReader(nil)
	r.Fail("bad %s", "thing")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bad thing") {
		t.Fatalf("Err = %v", err)
	}
	r.Fail("second")
	if !strings.Contains(r.Err().Error(), "bad thing") {
		t.Fatal("Fail overwrote the first error")
	}
}

func TestCountGuardsImplausibleLengths(t *testing.T) {
	var w Writer
	w.Int(1 << 40) // claims a huge count with no payload behind it
	r := NewReader(w.Bytes())
	if got := r.Count(); got != 0 {
		t.Errorf("Count = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("expected implausible-count error")
	}

	var w2 Writer
	w2.Int(-1)
	r2 := NewReader(w2.Bytes())
	if got := r2.Count(); got != 0 || r2.Err() == nil {
		t.Fatalf("negative Count = %d err = %v", got, r2.Err())
	}

	var w3 Writer
	w3.Int(2)
	w3.U8(0)
	w3.U8(0)
	r3 := NewReader(w3.Bytes())
	if got := r3.Count(); got != 2 || r3.Err() != nil {
		t.Fatalf("valid Count = %d err = %v", got, r3.Err())
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var w Writer
	w.F64(1.25)
	w.Str("payload")
	payload := w.Bytes()
	b := Encode(0xfeedface, payload)
	digest, got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if digest != 0xfeedface {
		t.Errorf("digest = %#x", digest)
	}
	if string(got) != string(payload) {
		t.Error("payload mismatch")
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	b := Encode(1, []byte("some payload bytes"))

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }, "too short"},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-9] }, "checksum"},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"flip-version", func(b []byte) []byte { b[9] ^= 1; return b }, "codec version"},
		{"flip-payload-bit", func(b []byte) []byte { b[headerLen+3] ^= 0x10; return b }, "checksum"},
		{"flip-checksum-bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum"},
		{"empty", func(b []byte) []byte { return nil }, "too short"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), b...))
			_, _, err := Decode(mut)
			if err == nil {
				t.Fatal("corrupt envelope decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A genuine version-3 file — payload length in the header, FNV-1a 64
// trailer — is refused with the version error, not reported as corrupt:
// magic and version are read before the checksum, at offsets every
// version shares.
func TestReadFileRefusesOlderVersion(t *testing.T) {
	payload := []byte("an older snapshot")
	var w Writer
	put(&w, magic)
	w.U32(3)
	w.U64(7)
	w.U64(uint64(len(payload)))
	put(&w, payload)
	h := fnv.New64a()
	h.Write(w.Bytes())
	w.U64(h.Sum64())
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFile(path)
	if err == nil {
		t.Fatal("a version-3 snapshot was read without error")
	}
	if want := fmt.Sprintf("codec version 3, this binary reads version %d", CodecVersion); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "surge/q=RED shards=2")
	if want := filepath.Join(dir, "surge_q_RED_shards_2.ckpt"); path != want {
		t.Errorf("PathFor = %q, want %q", path, want)
	}
	if err := WriteFile(path, 42, []byte("abc")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	digest, payload, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if digest != 42 || string(payload) != "abc" {
		t.Errorf("got digest=%d payload=%q", digest, payload)
	}
	// Overwrite is atomic: the second write replaces the first cleanly.
	if err := WriteFile(path, 43, []byte("def")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	digest, payload, err = ReadFile(path)
	if err != nil || digest != 43 || string(payload) != "def" {
		t.Errorf("after overwrite: digest=%d payload=%q err=%v", digest, payload, err)
	}
	// No stray tmp files left behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("dir has %d entries, want 1", len(ents))
	}
}

func TestReadFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	b := Encode(7, []byte("payload"))
	b[headerLen] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want corrupt error naming %s", err, path)
	}
}

func TestSanitizeName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"parkinglot h=2", "parkinglot_h_2"},
		{"a/b\\c:d", "a_b_c_d"},
		{"ok-name_1.2", "ok-name_1.2"},
		{"///", "job"},
		{"", "job"},
		{"  x  ", "x"},
	} {
		if got := SanitizeName(tc.in); got != tc.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := func() *Digest {
		var d Digest
		d.Str("surge")
		d.U64(2040)
		d.Int(4)
		d.F64(300)
		d.Bool(true)
		return &d
	}
	a := base().Sum()
	if b := base().Sum(); a != b {
		t.Fatal("identical field sequences digest differently")
	}
	var d Digest
	d.Str("surge")
	d.U64(2041) // one field off
	d.Int(4)
	d.F64(300)
	d.Bool(true)
	if d.Sum() == a {
		t.Fatal("digest insensitive to a field change")
	}
	var e Digest
	e.Str("surg")
	e.Str("e") // same bytes, different field boundaries
	e.U64(2040)
	e.Int(4)
	e.F64(300)
	e.Bool(true)
	if e.Sum() == a {
		t.Fatal("digest insensitive to field boundaries")
	}
}
