package checkpoint

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCodec drives the envelope decoder with arbitrary bytes and with
// mutations of valid encodings. Invariants: Decode never panics; a
// mutated valid encoding either fails or decodes to the original
// (digest, payload) — the checksum makes a silently wrong decode
// impossible; re-encoding a successful decode reproduces the input; and
// the streamed save hands its file exactly the in-memory envelope,
// whatever the chunk size and wherever the payload's writes split; and
// a field sequence the payload spells out, saved through the Codec,
// restores to equal values, while any truncation of it fails with a
// sticky error.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{}, uint64(0), byte(0), 0, byte(0))
	f.Add([]byte("payload"), uint64(42), byte(0xff), 3, byte(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), uint64(1<<63), byte(1), 20, byte(7))
	f.Fuzz(func(t *testing.T, payload []byte, digest uint64, flip byte, at int, chunk byte) {
		enc := Encode(digest, payload)

		// Streamed through a chunk of 8+chunk bytes, with a forced flush
		// where the payload's two writes meet.
		split := 0
		if len(payload) > 0 {
			split = at % len(payload)
			if split < 0 {
				split += len(payload)
			}
		}
		var file bytes.Buffer
		err := stream(&file, make([]byte, 0, 8+int(chunk)), digest, func(w *Writer) {
			put(w, payload[:split])
			w.flush()
			put(w, payload[split:])
		})
		if err != nil {
			t.Fatalf("streamed save failed: %v", err)
		}
		if !bytes.Equal(file.Bytes(), enc) {
			t.Fatalf("streamed envelope (%d bytes, chunk %d, split %d) differs from Encode (%d bytes)",
				file.Len(), 8+int(chunk), split, len(enc))
		}

		// Exact encoding must round-trip.
		d, p, err := Decode(enc)
		if err != nil {
			t.Fatalf("valid encoding rejected: %v", err)
		}
		if d != digest || !bytes.Equal(p, payload) {
			t.Fatalf("round-trip mismatch: digest %x->%x", digest, d)
		}
		if !bytes.Equal(Encode(d, p), enc) {
			t.Fatal("re-encode differs from original")
		}

		pos := at % len(enc)
		if pos < 0 {
			pos += len(enc)
		}

		// Any truncation must be rejected.
		if _, _, err := Decode(enc[:pos]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", pos)
		}

		// A bit flip anywhere must be rejected (flip==0 flips nothing —
		// then the decode must still succeed with the original values).
		mut := append([]byte(nil), enc...)
		mut[pos] ^= flip
		d2, p2, err := Decode(mut)
		if flip == 0 {
			if err != nil {
				t.Fatalf("no-op mutation rejected: %v", err)
			}
		} else if err == nil {
			// CRC-32C catches every burst of up to 32 bits, so a flip
			// within one byte never goes unnoticed.
			if d2 != digest || !bytes.Equal(p2, payload) {
				t.Fatalf("bit flip at %d decoded to different content", pos)
			}
		}

		// Raw-garbage decode (payload reinterpreted as a file) must not
		// panic; error or success are both fine.
		Decode(payload)

		// The payload's bytes pick a field sequence (at most 64 fields)
		// whose values derive from the digest: saved through the Codec it
		// restores to equal values, and every truncation of the saved
		// bytes fails the restore with a sticky error and no panic.
		kinds := payload[:min(len(payload), 64)]
		want := fuzzFieldValues(kinds, digest)
		var fw Writer
		walkKinds(fw.Codec(), kinds, want)
		got := make([]fields, len(kinds))
		fr := NewReader(fw.Bytes())
		walkKinds(fr.Codec(), kinds, got)
		if fr.Err() != nil || fr.Remaining() != 0 {
			t.Fatalf("field restore: err %v, %d bytes left", fr.Err(), fr.Remaining())
		}
		for i, k := range kinds {
			if !sameField(k, &want[i], &got[i]) {
				t.Fatalf("field %d (kind %d): restored %+v, saved %+v", i, k%7, got[i], want[i])
			}
		}
		if n := fw.Len(); n > 0 {
			cut := pos % n
			tc := NewReader(fw.Bytes()[:cut]).Codec()
			walkKinds(tc, kinds, make([]fields, len(kinds)))
			var after uint64 = 1
			tc.U64(&after)
			if tc.Err() == nil || after != 0 {
				t.Fatalf("restore of %d of %d field bytes: err %v, read after it %d", cut, n, tc.Err(), after)
			}
		}

		// Reader over arbitrary bytes: drain with every primitive; must
		// not panic and must go sticky at the end.
		r := NewReader(payload)
		for r.Err() == nil && r.Remaining() > 0 {
			r.U8()
			r.U32()
			r.U64()
			r.F64()
			r.Str()
			r.Timer()
			r.Count()
		}
	})
}

// walkKinds walks one field per kind byte through c, each into its own
// slot of vs.
func walkKinds(c Codec, kinds []byte, vs []fields) {
	for i, k := range kinds {
		v := &vs[i]
		switch k % 7 {
		case 0:
			c.U8(&v.u8)
		case 1:
			c.Bool(&v.b)
		case 2:
			c.U64(&v.u64)
		case 3:
			c.I64(&v.i64)
		case 4:
			c.Int(&v.n)
		case 5:
			c.F64(&v.f)
		case 6:
			c.Timer(&v.tm)
		}
	}
}

// fuzzFieldValues fills one slot per kind from a splitmix64 stream
// seeded by seed, so every bit pattern — NaN payloads included — occurs.
func fuzzFieldValues(kinds []byte, seed uint64) []fields {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	vs := make([]fields, len(kinds))
	for i := range vs {
		vs[i] = fields{
			u8: uint8(next()), b: next()&1 == 1, u64: next(), i64: int64(next()), n: int(next()),
			f:  math.Float64frombits(next()),
			tm: TimerState{OK: next()&1 == 1, At: math.Float64frombits(next()), Key: math.Float64frombits(next()), Seq: next()},
		}
	}
	return vs
}

// sameField compares the one field of kind k in a and b, floats by
// their bits.
func sameField(k byte, a, b *fields) bool {
	bits := math.Float64bits
	switch k % 7 {
	case 0:
		return a.u8 == b.u8
	case 1:
		return a.b == b.b
	case 2:
		return a.u64 == b.u64
	case 3:
		return a.i64 == b.i64
	case 4:
		return a.n == b.n
	case 5:
		return bits(a.f) == bits(b.f)
	default:
		return a.tm.OK == b.tm.OK && bits(a.tm.At) == bits(b.tm.At) &&
			bits(a.tm.Key) == bits(b.tm.Key) && a.tm.Seq == b.tm.Seq
	}
}
