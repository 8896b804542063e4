package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzCodec drives the envelope decoder with arbitrary bytes and with
// mutations of valid encodings. Invariants: Decode never panics; a
// mutated valid encoding either fails or decodes to the original
// (digest, payload) — the checksum makes a silently wrong decode
// impossible; re-encoding a successful decode reproduces the input; and
// the streamed save hands its file exactly the in-memory envelope,
// whatever the chunk size and wherever the payload's writes split.
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
