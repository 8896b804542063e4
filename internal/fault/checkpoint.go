package fault

import "repro/internal/checkpoint"

// Save writes the armed plan's run-time phase: per-event timer state
// (fired events save as dead timers) and per-link control state.
// Saving a nil Armed writes an empty section that restores against nil.
func (a *Armed) Save(w *checkpoint.Writer) {
	if a == nil {
		w.Int(0)
		w.Int(0)
		return
	}
	w.Int(len(a.events))
	for _, e := range a.events {
		w.Timer(e.tm.State())
	}
	w.Int(len(a.ctls))
	for _, c := range a.ctls {
		w.Int(int(c.id))
		w.Bool(c.down)
		w.Bool(c.inBad)
		if c.ge {
			for _, word := range c.rnd.State() {
				w.U64(word)
			}
		}
	}
}

// Restore overlays state saved by Save onto a freshly re-armed plan:
// events the snapshot saw fire stay fired (the scheduler reset already
// discarded their rebuild arming), pending ones are re-armed with their
// original identity, and the link controls pick up their outage and
// loss-chain phase. Run it after the schedulers have been reset and
// their clocks restored.
func (a *Armed) Restore(r *checkpoint.Reader) {
	n := r.Count()
	if a == nil {
		if n != 0 || r.Count() != 0 {
			r.Fail("fault snapshot is non-empty but the rebuilt run armed no plan")
		}
		return
	}
	if n != len(a.events) {
		r.Fail("fault snapshot has %d events, rebuilt plan armed %d", n, len(a.events))
		return
	}
	for i := range a.events {
		e := &a.events[i]
		e.tm = e.sched.RestoreTimer(r.Timer(), e.fn)
	}
	c := r.Count()
	if c != len(a.ctls) {
		r.Fail("fault snapshot has %d link controls, rebuilt plan has %d", c, len(a.ctls))
		return
	}
	for _, ctl := range a.ctls {
		if r.Err() != nil {
			return
		}
		if id := r.Int(); id != int(ctl.id) {
			r.Fail("fault snapshot control is for link %d, rebuilt control is for link %d", id, ctl.id)
			return
		}
		ctl.down = r.Bool()
		ctl.inBad = r.Bool()
		if ctl.ge {
			var st [4]uint64
			for i := range st {
				st[i] = r.U64()
			}
			if r.Err() == nil {
				ctl.rnd.SetState(st)
			}
		}
	}
}
