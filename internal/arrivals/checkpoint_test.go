package arrivals

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// A churn section whose class record does not fit the arrivals it
// counts is refused, naming the check: a pool deeper than the arrival
// budget, a live transfer out of arrival order, or one past the
// arrivals served. The bytes are patched in place, since a running
// engine never saves such a record.
func TestRestoreRejectsCorruptClass(t *testing.T) {
	sp := tfrcSpec(93)
	build := func() (*des.Scheduler, *Engine) {
		var sched des.Scheduler
		net, route := testNet(&sched)
		return &sched, armEngine(&serialHost{sched: &sched, net: net}, net, route, []Spec{sp})
	}
	sched, eng := build()
	sched.RunUntil(5)
	var w checkpoint.Writer
	eng.Checkpoint(w.Codec())
	cs := eng.classes[0]
	// The one class's record opens with the class count, the RNG words,
	// the arrival cursor and the arrival timer; its live transfers'
	// records close the section.
	const poolAt = 8 + 4*8 + 8 + 25
	records := 0
	for i := 0; i < cs.next; i++ {
		if cs.transfer(i) != nil {
			var one checkpoint.Writer
			cs.checkpointTransfer(one.Codec(), i-1)
			records += one.Len()
		}
	}
	if records == 0 {
		t.Fatal("no live transfer in the snapshot; the test exercises nothing")
	}
	firstAt := w.Len() - records
	patched := func(at, v int) []byte {
		b := append([]byte(nil), w.Bytes()...)
		binary.LittleEndian.PutUint64(b[at:], uint64(int64(v)))
		return b
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"pool depth", patched(poolAt, sp.MaxArrivals+1), "implausible pool depth"},
		{"transfer order", patched(firstAt, -1), "lists live transfer -1 after -1"},
		{"transfer cursor", patched(firstAt, cs.next), "lists live transfer"},
	}
	for _, tc := range cases {
		sched2, twin := build()
		sched2.Reset()
		sched2.RestoreClock(sched.Now(), sched.Seq(), sched.Fired(), sched.Cascaded())
		r := checkpoint.NewReader(tc.payload)
		twin.Checkpoint(r.Codec())
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
