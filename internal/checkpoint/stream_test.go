package checkpoint

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// errTorn is the failure failAfter reports.
var errTorn = errors.New("sink failed")

// failAfter passes n bytes to w and then fails, as a full disk or a
// revoked descriptor would part-way through a payload.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errTorn
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// pattern returns a fill that writes n bytes (a multiple of 8) through
// U64, as a component's Checkpoint walk saves its fields.
func pattern(n int) func(*Writer) {
	return func(w *Writer) {
		for i := 0; i < n/8; i++ {
			w.U64(uint64(i) * 0x9e3779b97f4a7c15)
		}
	}
}

// A save that fails mid-payload — its sink erroring, or a component's
// Checkpoint walk panicking — reports the failure, keeps the previous
// snapshot readable and leaves no temporary file behind.
func TestTornWriteKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	if err := WriteFile(path, 1, []byte("previous snapshot")); err != nil {
		t.Fatal(err)
	}
	intact := func(when string) {
		t.Helper()
		digest, payload, err := ReadFile(path)
		if err != nil || digest != 1 || string(payload) != "previous snapshot" {
			t.Fatalf("%s: digest=%d payload=%q err=%v", when, digest, payload, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s: dir has %d entries, want the snapshot alone", when, len(ents))
		}
	}

	chunk := make([]byte, 4096)
	err := replace(path, func(f io.Writer) error {
		return stream(&failAfter{w: f, n: 10000}, chunk, 2, pattern(1<<20))
	})
	if !errors.Is(err, errTorn) {
		t.Fatalf("torn save returned %v, want the sink's error", err)
	}
	intact("after a failing sink")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fill's panic was swallowed")
			}
		}()
		StreamFile(path, 3, func(w *Writer) {
			pattern(1 << 16)(w)
			panic("save bug")
		})
	}()
	intact("after a panicking fill")
}

// A streamed save allocates a bounded number of bytes — the temporary
// file's name and handle — however large the payload: it never holds,
// copies or regrows the payload. The file it leaves decodes to the
// payload written.
func TestStreamedSaveAllocationIsBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.ckpt")
	alloc := func(n int) uint64 {
		fill := pattern(n)
		best := uint64(math.MaxUint64)
		// The least of a few saves: a GC cycle may empty the chunk pool.
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := StreamFile(path, 9, fill); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const bound = 8 << 10
	for _, n := range []int{1 << 20, 4 << 20} {
		if got := alloc(n); got > bound {
			t.Errorf("streamed save of %d payload bytes allocated %d bytes, want <= %d", n, got, bound)
		}
	}
	var want Writer
	pattern(4 << 20)(&want)
	digest, payload, err := ReadFile(path)
	if err != nil || digest != 9 || string(payload) != string(want.Bytes()) {
		t.Fatalf("streamed file: digest=%d len=%d err=%v, want digest 9 and the %d-byte payload",
			digest, len(payload), err, want.Len())
	}
}
