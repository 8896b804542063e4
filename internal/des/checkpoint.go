package des

import (
	"math"

	"repro/internal/checkpoint"
)

// Seq returns the next sequence number the scheduler would assign. It
// is saved alongside Now/Fired/Cascaded so a restored scheduler keeps
// numbering events exactly where the original left off.
func (s *Scheduler) Seq() uint64 { return s.seq }

// State returns the timer's portable identity for a snapshot: its
// firing time, causal key and sequence number, read from its slot. A
// zero, fired, cancelled or stale handle returns the zero TimerState
// (OK false), which restores to the zero Timer.
func (t Timer) State() checkpoint.TimerState {
	if !t.Active() {
		return checkpoint.TimerState{}
	}
	sl := &t.s.slots[t.slot]
	return checkpoint.TimerState{OK: true, At: sl.at, Key: sl.key, Seq: sl.seq}
}

// RestoreClock overwrites the scheduler's clock state with values saved
// from a running scheduler: current time, next sequence number, and the
// fired/cascaded counters. Snapshots are taken between runs, after
// RunUntil, so every event at the restored clock counts as fired
// (Passed). The pending set must be empty (call Reset
// first); restored events are then re-armed with RestoreAt.
func (s *Scheduler) RestoreClock(now float64, seq, fired, cascaded uint64) {
	if s.live != 0 {
		panic("des: RestoreClock on a scheduler with pending events")
	}
	if now < 0 {
		panic("des: RestoreClock with negative time")
	}
	s.now, s.key = now, math.Inf(1)
	s.seq = seq
	s.fired = fired
	s.cascaded = cascaded
	s.cur = s.cur[:0]
	s.curIdx = 0
	s.curTick = tickOf(now)
	s.jumped = false
}

// RestoreAt re-arms an event with an explicit saved identity: firing
// time, causal key and the sequence number it drew in the original run.
// Unlike At/AtOrigin it does not consume a fresh sequence number, so a
// restored pending set fires in exactly the original (at, key, seq)
// total order, and events scheduled after the restore point continue
// the original numbering. The saved seq must predate the restored
// scheduler's next seq.
func (s *Scheduler) RestoreAt(at, key float64, seq uint64, fn Event) Timer {
	if at < s.now {
		panic("des: restoring an event into the past")
	}
	if key > at {
		panic("des: restored origin after firing time")
	}
	if seq >= s.seq {
		panic("des: restored seq from the future")
	}
	if fn == nil {
		panic("des: nil event")
	}
	return s.arm(at, key, seq, fn)
}

// RestoreTimer re-arms a timer from a saved TimerState, returning the
// inert zero Timer when the state is not OK (the timer was dead at save
// time). It is the restore-side pairing of Timer.State.
func (s *Scheduler) RestoreTimer(st checkpoint.TimerState, fn Event) Timer {
	if !st.OK {
		return Timer{}
	}
	return s.RestoreAt(st.At, st.Key, st.Seq, fn)
}

// CheckpointTimer walks a timer through c: a save writes tm's state, and
// a restore re-arms tm on fn under the saved identity, leaving it alone
// once the read has failed. A saved identity that does not fit the
// restored clock — a time in the past, a causal key after its time, or
// a seq the clock has not yet handed out — fails the read instead. It
// reports whether the timer is live: active at the save, or saved live
// and read back without error.
func (s *Scheduler) CheckpointTimer(c checkpoint.Codec, tm *Timer, fn Event) bool {
	var st checkpoint.TimerState
	if c.Saving() {
		st = tm.State()
	}
	c.Timer(&st)
	if c.Saving() {
		return st.OK
	}
	if c.Err() != nil {
		return false
	}
	if st.OK && (st.At < s.now || st.Key > st.At || st.Seq >= s.seq) {
		c.Fail("timer (at %v, key %v, seq %d) does not fit the restored clock (now %v, next seq %d)",
			st.At, st.Key, st.Seq, s.now, s.seq)
		return false
	}
	*tm = s.RestoreTimer(st, fn)
	return st.OK
}
