package estimator

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// A loss-interval history restores into an estimator of the same window
// and is refused, naming both sizes, by one with a shorter window.
func TestRestoreChecks(t *testing.T) {
	e := NewTFRC(8)
	for i := 1; i <= 6; i++ {
		e.Observe(float64(10 * i))
	}
	var w checkpoint.Writer
	e.Checkpoint(w.Codec())

	same := NewTFRC(8)
	r := checkpoint.NewReader(w.Bytes())
	same.Checkpoint(r.Codec())
	if r.Err() != nil || same.Estimate() != e.Estimate() {
		t.Fatalf("restore into the same window: err %v, estimate %v, saved %v", r.Err(), same.Estimate(), e.Estimate())
	}

	r = checkpoint.NewReader(w.Bytes())
	NewTFRC(4).Checkpoint(r.Codec())
	if err, want := r.Err(), "history of 6 exceeds window 4"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore error %v, want one containing %q", err, want)
	}
}
