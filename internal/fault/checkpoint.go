package fault

import "repro/internal/checkpoint"

// Checkpoint walks the armed plan's run-time phase through c: per-event
// timer state (fired events save as dead timers) and per-link control
// state. A nil Armed walks an empty section, two zero counts, which a
// restore accepts only against nil.
//
// A restore overlays the state onto a freshly re-armed plan: events the
// snapshot saw fire stay fired (the scheduler reset already discarded
// their rebuild arming), pending ones are re-armed with their original
// identity, and the link controls pick up their outage and loss-chain
// phase. Run it after the schedulers have been reset and their clocks
// restored.
func (a *Armed) Checkpoint(c checkpoint.Codec) {
	if a == nil {
		var events, ctls int
		c.Int(&events)
		c.Int(&ctls)
		if events != 0 || ctls != 0 {
			c.Fail("fault snapshot is non-empty but the rebuilt run armed no plan")
		}
		return
	}
	if !c.Same(len(a.events), "fault event count") {
		return
	}
	for i := range a.events {
		e := &a.events[i]
		e.sched.CheckpointTimer(c, &e.tm, e.fn)
	}
	if !c.Same(len(a.ctls), "fault link control count") {
		return
	}
	for _, ctl := range a.ctls {
		if !c.Same(int(ctl.id), "fault link control id") {
			return
		}
		c.Bool(&ctl.down)
		c.Bool(&ctl.inBad)
		if ctl.ge {
			ctl.rnd.Checkpoint(c)
		}
	}
}
