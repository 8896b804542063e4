package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// CodecVersion is the container format version. Readers refuse files
// written under a different version rather than guessing at layouts.
// Version 2: every run saves its network's per-domain sections and the
// cluster's handoff section, at any shard count. Version 3: the churn
// section holds the live transfers and the running Palm sums only.
// Version 4: the payload length moves to the trailer and the checksum
// is CRC-32C, so a save can stream the payload. Version 5: one run
// driver saves every stateful component behind a count, in construction
// order — capture, fault plan, each flow's endpoints and watcher,
// probe and cross-traffic sources with their start timers, churn.
// Version 6: a packet crossing shards is saved as a pending delivery of
// its destination domain, whose kind byte widens the to-sender flag;
// the handoff section keeps only the per-shard counters; cross traffic
// saves one packet counter. Version 7: a link saves the departure time,
// causal key and size of the packet in service in place of its
// serialization timer, and that packet joins the propagation pipeline.
const CodecVersion = 7

// magic identifies a checkpoint file. Eight bytes, fixed.
const magic = "EBRCCKP1"

// envelope layout (magic and version sit at the same offsets in every
// version, so a reader names the version of a file it cannot read):
//
//	[8]  magic
//	[4]  codec version (LE)
//	[8]  config digest (LE)
//	[n]  payload
//	[8]  payload length n (LE)
//	[4]  CRC-32C (Castagnoli) of everything above (LE)
const (
	versionEnd = 8 + 4
	headerLen  = versionEnd + 8
	trailerLen = 8 + 4
)

// castagnoli is the CRC-32C table; hash/crc32 computes it with the
// CPU's CRC instructions on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkLen is the size of the one chunk a streamed save writes through.
const chunkLen = 32 << 10

// chunks recycles save chunks across snapshots and concurrent jobs.
var chunks = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// header writes the envelope's magic, codec version and config digest.
func (w *Writer) header(digest uint64) {
	put(w, magic)
	w.U32(CodecVersion)
	w.U64(digest)
}

// Encode wraps a payload in the versioned, checksummed envelope.
func Encode(digest uint64, payload []byte) []byte {
	w := Writer{buf: make([]byte, 0, headerLen+len(payload)+trailerLen)}
	w.header(digest)
	put(&w, payload)
	w.U64(uint64(len(payload)))
	w.U32(crc32.Checksum(w.buf, castagnoli))
	return w.buf
}

// crcSink forwards flushed chunks to w and folds each into a running
// CRC-32C, counting the bytes it has passed on.
type crcSink struct {
	w   io.Writer
	sum uint32
	n   int
}

func (s *crcSink) Write(p []byte) (int, error) {
	s.sum = crc32.Update(s.sum, castagnoli, p)
	s.n += len(p)
	return s.w.Write(p)
}

// stream writes one envelope to dst through chunk, whose capacity must
// hold the widest field (8 bytes): fill writes the payload, and the
// bytes dst receives equal Encode of the same digest and payload.
func stream(dst io.Writer, chunk []byte, digest uint64, fill func(*Writer)) error {
	s := crcSink{w: dst}
	w := Writer{buf: chunk[:0], sink: &s}
	w.header(digest)
	fill(&w)
	w.U64(uint64(s.n + len(w.buf) - headerLen))
	w.U32(crc32.Update(s.sum, castagnoli, w.buf))
	return w.flush()
}

// StreamFile atomically writes a snapshot whose payload fill writes:
// the envelope streams into a temporary file in the target directory
// through one pooled chunk, and the file is renamed over path only
// once it is complete, so a crash mid-write — or an abandoned goroutine
// still flushing after its job was retried — can never leave a
// half-written file where a resume would find it. The directory must
// exist.
func StreamFile(path string, digest uint64, fill func(*Writer)) error {
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	return replace(path, func(f io.Writer) error {
		return stream(f, chunk[:], digest, fill)
	})
}

// WriteFile atomically writes an encoded snapshot of an in-memory
// payload, as StreamFile does.
func WriteFile(path string, digest uint64, payload []byte) error {
	return StreamFile(path, digest, func(w *Writer) { put(w, payload) })
}

// replace runs write on a new temporary file next to path and renames
// it over path once write and Close succeed. On any failure, a panic
// inside write included, the temporary file is removed and path keeps
// its previous contents.
func replace(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	done := false
	defer func() {
		if !done {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	done = true
	return nil
}

// Decode validates the envelope — magic and version first, so a file of
// another codec version is refused by name, then the checksum, then the
// length — and returns the config digest and payload. Any corruption (a
// truncated file, a flipped bit anywhere) is an error, never a
// partially decoded snapshot.
func Decode(b []byte) (digest uint64, payload []byte, err error) {
	if len(b) < versionEnd {
		return 0, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(b))
	}
	if string(b[:8]) != magic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != CodecVersion {
		return 0, nil, fmt.Errorf("checkpoint: codec version %d, this binary reads version %d", v, CodecVersion)
	}
	if len(b) < headerLen+trailerLen {
		return 0, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(b))
	}
	body, end := b[:len(b)-4], len(b)-trailerLen
	if sum, got := binary.LittleEndian.Uint32(b[len(body):]), crc32.Checksum(body, castagnoli); sum != got {
		return 0, nil, fmt.Errorf("checkpoint: checksum mismatch (file %08x, computed %08x): file is corrupt", sum, got)
	}
	payload = b[headerLen:end]
	if n := binary.LittleEndian.Uint64(b[end:]); uint64(len(payload)) != n {
		return 0, nil, fmt.Errorf("checkpoint: payload length %d does not match trailer %d", len(payload), n)
	}
	return binary.LittleEndian.Uint64(b[versionEnd:]), payload, nil
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
