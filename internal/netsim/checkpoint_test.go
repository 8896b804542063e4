package netsim

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/rng"
)

// restoreError saves through save, restores the bytes through restore
// and returns the restore's error.
func restoreError(save, restore func(checkpoint.Codec)) error {
	var w checkpoint.Writer
	save(w.Codec())
	r := checkpoint.NewReader(w.Bytes())
	restore(r.Codec())
	return r.Err()
}

// filled returns q holding n packets.
func filled(q Queue, n int) Queue {
	for i := 0; i < n; i++ {
		if !q.Enqueue(&Packet{Flow: 1, Seq: int64(i), Size: 1000}, 0) {
			panic("test queue refused a packet")
		}
	}
	return q
}

// busyLink returns a link that was sent two packets and run until the
// first propagates and the second serializes. kill, when set, then
// spoils one of them, a state a running link never has.
func busyLink(kill func(l *Link)) *Link {
	s := &des.Scheduler{}
	l := NewLink(s, 1e5, 0.05, NewDropTail(8))
	l.Deliver = func(*Packet) {}
	l.Send(&Packet{Flow: 1, Seq: 0, Size: 1000})
	l.Send(&Packet{Flow: 1, Seq: 1, Size: 1000})
	s.RunUntil(0.015)
	l.Settle()
	if !l.busy || l.txKey != 0.01 || l.propLen != 2 || l.queue.Len() != 0 {
		panic("test link is not serializing and propagating")
	}
	if kill != nil {
		kill(l)
	}
	return l
}

// twinLink returns a freshly built twin of l on a scheduler restored to
// l's clock.
func twinLink(l *Link) *Link {
	s := &des.Scheduler{}
	s.RestoreClock(l.sched.Now(), l.sched.Seq(), l.sched.Fired(), l.sched.Cascaded())
	return NewLink(s, 1e5, 0.05, NewDropTail(8))
}

// Each restore-side check of the netsim snapshot walk refuses a twin
// that differs where it looks, with an error naming the check.
func TestRestoreChecks(t *testing.T) {
	get := func() *Packet { return &Packet{} }
	queue := func(q Queue) func(checkpoint.Codec) {
		return func(c checkpoint.Codec) { checkpointQueue(c, q, get) }
	}
	red := func(capacity int) *RED {
		return NewRED(REDConfig{Capacity: capacity, MinTh: 2, MaxTh: 6, MaxP: 0.1, Wq: 0.002}, 1e5, rng.New(1))
	}
	cross := func(flow int) *CrossTraffic {
		s := &des.Scheduler{}
		return NewCrossTraffic(s, &sentLog{sched: s}, flow, 1e5, 20, 1.5, 0.05, 1000, 11)
	}
	link := func(l *Link) func(checkpoint.Codec) {
		return func(c checkpoint.Codec) { l.Checkpoint(c, get) }
	}
	lateStart := busyLink(func(l *Link) { l.txKey, l.txAt = 0.02, 0.03 })
	backward := busyLink(func(l *Link) { l.txAt = 0.005 })
	noProp := busyLink(func(l *Link) { l.prop[l.propHead].tm = des.Timer{} })
	cases := []struct {
		name          string
		save, restore func(checkpoint.Codec)
		want          string
	}{
		{"cross-traffic flow id", cross(7).Checkpoint, cross(8).Checkpoint, "cross-traffic flow: snapshot has 7, rebuilt has 8"},
		{"queue discipline", queue(NewDropTail(8)), queue(NewUnbounded()), "queue discipline mismatch"},
		{"smaller DropTail", queue(filled(NewDropTail(8), 5)), queue(NewDropTail(4)), "DropTail holds 5 packets, rebuilt capacity 4"},
		{"smaller RED", queue(filled(red(8), 5)), queue(red(4)), "RED holds 5 packets, rebuilt capacity 4"},
		{"non-empty queue", queue(filled(NewDropTail(8), 2)), queue(filled(NewDropTail(8), 1)), "restoring into a non-empty queue"},
		{"serialization started after the clock", link(lateStart), link(twinLink(lateStart)), "saved departure at 0.03 of a serialization started at 0.02 does not fit the restored clock 0.015"},
		{"departure before its start", link(backward), link(twinLink(backward)), "saved departure at 0.005 of a serialization started at 0.01"},
		{"dead delivery timer", link(noProp), link(twinLink(noProp)), "without a live delivery timer"},
	}
	for _, tc := range cases {
		err := restoreError(tc.save, tc.restore)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The unmodified twins restore cleanly.
	if busy := busyLink(nil); restoreError(link(busy), link(twinLink(busy))) != nil {
		t.Error("busy link: restore into its twin failed")
	}
	if err := restoreError(queue(filled(red(8), 5)), queue(red(8))); err != nil {
		t.Errorf("RED: %v", err)
	}
}
