package des

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// TestCaptureRestoreOrder schedules a mixed pending set (near, far,
// overflow-distance, same-instant ties, AtOrigin keys, cancellations),
// runs partway, snapshots every handle through Timer.State, restores
// into a fresh scheduler, and checks the restored scheduler fires the
// identical suffix.
func TestCaptureRestoreOrder(t *testing.T) {
	type rec struct {
		id int
		at float64
	}
	build := func(s *Scheduler, log *[]rec) []Timer {
		var tms []Timer
		note := func(id int) Event {
			return func() { *log = append(*log, rec{id, s.Now()}) }
		}
		tms = append(tms, s.At(0.5, note(1)))
		tms = append(tms, s.At(1.0, note(2)))
		tms = append(tms, s.At(1.0, note(3)))          // same-instant FIFO tie
		tms = append(tms, s.AtOrigin(1.0, 0, note(4))) // earlier key: fires before 2,3
		tms = append(tms, s.At(2.5, note(5)))
		tms = append(tms, s.At(100000, note(6)))   // far: high wheel level
		tms = append(tms, s.At(80000.25, note(7))) // overflow distance at restore
		tms = append(tms, s.At(1.5, note(8)))
		return tms
	}

	// Reference: uninterrupted run.
	var refLog []rec
	ref := &Scheduler{}
	refTms := build(ref, &refLog)
	ref.RunUntil(0.75)
	refTms[7].Cancel() // cancel id 8 mid-run
	ref.Run()

	// Interrupted run: snapshot at 0.75, restore, finish.
	var log []rec
	s := &Scheduler{}
	tms := build(s, &log)
	s.RunUntil(0.75)
	tms[7].Cancel()

	now, seq, fired, cascaded := s.Now(), s.Seq(), s.Fired(), s.Cascaded()
	var sts []checkpoint.TimerState
	captured := 0
	for _, tm := range tms {
		st := tm.State()
		sts = append(sts, st)
		if st.OK {
			captured++
		}
	}
	if captured != s.Pending() {
		t.Fatalf("State reports %d live timers, Pending = %d", captured, s.Pending())
	}
	if sts[0].OK {
		t.Error("fired timer captured as live")
	}
	if sts[7].OK {
		t.Error("cancelled timer captured as live")
	}
	if !sts[3].OK || sts[3].Key != 0 {
		t.Errorf("AtOrigin key not preserved: %+v", sts[3])
	}

	var log2 []rec
	r := &Scheduler{}
	r.Reset()
	r.RestoreClock(now, seq, fired, cascaded)
	if r.Now() != now || r.Seq() != seq || r.Fired() != fired || r.Cascaded() != cascaded {
		t.Fatal("RestoreClock did not restore counters")
	}
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8}
	live := 0
	for i, st := range sts {
		id := ids[i]
		tm := r.RestoreTimer(st, func() { log2 = append(log2, rec{id, r.Now()}) })
		if st.OK {
			live++
			if !tm.Active() {
				t.Errorf("restored timer %d not active", id)
			}
		} else if tm.Active() {
			t.Errorf("dead state %d restored to an active timer", id)
		}
	}
	if r.Pending() != live {
		t.Fatalf("Pending = %d after restore, want %d", r.Pending(), live)
	}
	r.Run()

	refSuffix := refLog[1:] // drop the pre-snapshot firing of id 1
	if len(log2) != len(refSuffix) {
		t.Fatalf("restored run fired %d events, reference suffix has %d", len(log2), len(refSuffix))
	}
	for i := range log2 {
		if log2[i] != refSuffix[i] {
			t.Errorf("firing %d: restored %+v, reference %+v", i, log2[i], refSuffix[i])
		}
	}
	// And new events scheduled post-restore continue the seq numbering:
	// scheduling order within an instant still breaks FIFO correctly.
	if r.Seq() != ref.Seq() {
		t.Errorf("post-run Seq: restored %d, reference %d", r.Seq(), ref.Seq())
	}
}

func TestRestoreAtValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := &Scheduler{}
	s.RestoreClock(10, 5, 4, 0)
	mustPanic("past at", func() { s.RestoreAt(9, 9, 1, func() {}) })
	mustPanic("key>at", func() { s.RestoreAt(11, 12, 1, func() {}) })
	mustPanic("future seq", func() { s.RestoreAt(11, 11, 5, func() {}) })
	mustPanic("nil fn", func() { s.RestoreAt(11, 11, 1, nil) })

	s2 := &Scheduler{}
	s2.At(1, func() {})
	mustPanic("pending events", func() { s2.RestoreClock(0, 0, 0, 0) })
}

// A timer walk whose saved identity does not fit the restored clock
// fails the read with an error naming the values, and never reaches
// RestoreAt's panics.
func TestCheckpointTimerRejectsMisfit(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   checkpoint.TimerState
	}{
		{"seq at the next seq", checkpoint.TimerState{OK: true, At: 11, Key: 11, Seq: 5}},
		{"seq beyond the next seq", checkpoint.TimerState{OK: true, At: 11, Key: 11, Seq: 9}},
		{"time in the past", checkpoint.TimerState{OK: true, At: 9, Key: 9, Seq: 1}},
		{"key after time", checkpoint.TimerState{OK: true, At: 11, Key: 12, Seq: 1}},
	} {
		var w checkpoint.Writer
		w.Timer(tc.st)
		s := &Scheduler{}
		s.RestoreClock(10, 5, 4, 0)
		r := checkpoint.NewReader(w.Bytes())
		var tm Timer
		if s.CheckpointTimer(r.Codec(), &tm, func() {}) {
			t.Errorf("%s: reported live", tc.name)
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "does not fit the restored clock (now 10, next seq 5)") {
			t.Errorf("%s: restore error %v, want one naming the clock", tc.name, err)
		}
		if tm.Active() || s.Pending() != 0 {
			t.Errorf("%s: a misfit timer was armed", tc.name)
		}
	}
}

// TestZeroTimerState pins that the zero Timer, and a handle made stale
// by Reset, save as the zero TimerState.
func TestZeroTimerState(t *testing.T) {
	if st := (Timer{}).State(); st != (checkpoint.TimerState{}) {
		t.Errorf("zero timer state %+v, want the zero state", st)
	}
	s := &Scheduler{}
	tm := s.At(1, func() {})
	s.Reset()
	if st := tm.State(); st != (checkpoint.TimerState{}) {
		t.Errorf("stale timer state %+v, want the zero state", st)
	}
}
