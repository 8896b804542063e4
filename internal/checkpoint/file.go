package checkpoint

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

// CodecVersion is the container format version. Readers refuse files
// written under a different version rather than guessing at layouts.
// Version 2: every run saves its network's per-domain sections and the
// cluster's handoff section, at any shard count. Version 3: the churn
// section holds the live transfers and the running Palm sums only.
const CodecVersion = 3

// magic identifies a checkpoint file. Eight bytes, fixed.
const magic = "EBRCCKP1"

// envelope layout:
//
//	[8]  magic
//	[4]  codec version (LE)
//	[8]  config digest (LE)
//	[8]  payload length (LE)
//	[n]  payload
//	[8]  FNV-1a 64 checksum of everything above (LE)
const headerLen = 8 + 4 + 8 + 8
const trailerLen = 8

// Encode wraps a payload in the versioned, checksummed envelope.
func Encode(digest uint64, payload []byte) []byte {
	var w Writer
	w.buf = make([]byte, 0, headerLen+len(payload)+trailerLen)
	w.buf = append(w.buf, magic...)
	w.U32(CodecVersion)
	w.U64(digest)
	w.U64(uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	h := fnv.New64a()
	h.Write(w.buf)
	w.U64(h.Sum64())
	return w.buf
}

// Decode validates the envelope — magic, version, lengths, checksum —
// and returns the config digest and payload. Any corruption (a
// truncated file, a flipped bit anywhere) is an error, never a
// partially decoded snapshot.
func Decode(b []byte) (digest uint64, payload []byte, err error) {
	if len(b) < headerLen+trailerLen {
		return 0, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(b))
	}
	if string(b[:8]) != magic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic %q", b[:8])
	}
	body, trailer := b[:len(b)-trailerLen], b[len(b)-trailerLen:]
	h := fnv.New64a()
	h.Write(body)
	r := NewReader(trailer)
	if sum := r.U64(); sum != h.Sum64() {
		return 0, nil, fmt.Errorf("checkpoint: checksum mismatch (file %016x, computed %016x): file is corrupt", sum, h.Sum64())
	}
	r = NewReader(body[8:])
	if v := r.U32(); v != CodecVersion {
		return 0, nil, fmt.Errorf("checkpoint: codec version %d, this binary reads version %d", v, CodecVersion)
	}
	digest = r.U64()
	n := r.U64()
	if uint64(r.Remaining()) != n {
		return 0, nil, fmt.Errorf("checkpoint: payload length %d does not match header %d", r.Remaining(), n)
	}
	payload = body[headerLen:]
	return digest, payload, nil
}

// WriteFile atomically writes an encoded snapshot: the bytes land in a
// temporary file in the target directory first and are renamed over the
// destination, so a crash mid-write — or an abandoned goroutine still
// flushing after its job was retried — can never leave a half-written
// file where a resume would find it.
func WriteFile(path string, digest uint64, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(Encode(digest, payload)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and validates a snapshot file.
func ReadFile(path string) (digest uint64, payload []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	digest, payload, err = Decode(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return digest, payload, nil
}

// SanitizeName maps an arbitrary job label to a filesystem-safe file
// stem: runs of characters outside [A-Za-z0-9._-] collapse to one '_'.
func SanitizeName(label string) string {
	var sb strings.Builder
	pend := false
	for _, c := range label {
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if ok {
			if pend && sb.Len() > 0 {
				sb.WriteByte('_')
			}
			pend = false
			sb.WriteRune(c)
		} else {
			pend = true
		}
	}
	if sb.Len() == 0 {
		return "job"
	}
	return sb.String()
}

// PathFor returns the snapshot path of a labeled job inside dir.
func PathFor(dir, label string) string {
	return filepath.Join(dir, SanitizeName(label)+".ckpt")
}

// Digest is an incremental FNV-1a 64 hash over canonically encoded
// fields. Write config fields through the embedded Writer-like methods
// and call Sum; two configs digest equal iff every field matches.
type Digest struct {
	w Writer
}

// U64 folds a uint64 field into the digest.
func (d *Digest) U64(v uint64) { d.w.U64(v) }

// I64 folds an int64 field into the digest.
func (d *Digest) I64(v int64) { d.w.I64(v) }

// Int folds an int field into the digest.
func (d *Digest) Int(v int) { d.w.Int(v) }

// F64 folds a float64 field into the digest.
func (d *Digest) F64(v float64) { d.w.F64(v) }

// Bool folds a boolean field into the digest.
func (d *Digest) Bool(v bool) { d.w.Bool(v) }

// Str folds a string field into the digest.
func (d *Digest) Str(s string) { d.w.Str(s) }

// Sum returns the FNV-1a 64 hash of the folded fields.
func (d *Digest) Sum() uint64 {
	h := fnv.New64a()
	h.Write(d.w.Bytes())
	return h.Sum64()
}
