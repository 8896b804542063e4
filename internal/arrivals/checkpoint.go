package arrivals

import "repro/internal/checkpoint"

// Checkpoint walks the engine's run-time state through c in class
// declaration order: the class RNG and arrival cursor, the pending
// next-arrival timer, the population and running Palm sums, and the
// live transfers in arrival order, each with its protocol state inline.
// Reclaimed transfers leave nothing behind, so the section follows the
// live population, not the number of arrivals served.
//
// A restore overlays the state onto a freshly armed engine built from
// the same class list. Live transfers are re-attached with freshly
// built endpoint pairs (the protocol Renew contract makes a fresh pair
// and a recycled one indistinguishable) and their protocol state is
// then overlaid; the recycling pools are refilled to their saved depths
// so the construction ledger stays on the uninterrupted run's
// trajectory. Run it after the schedulers have been reset and their
// clocks restored, and before the network's flow overlay, which
// validates the re-attached population.
func (e *Engine) Checkpoint(c checkpoint.Codec) {
	if !e.armed && !c.Saving() {
		c.Fail("arrivals engine restored before Arm")
		return
	}
	if !c.Same(len(e.classes), "arrivals class count") {
		return
	}
	for _, cs := range e.classes {
		if c.Err() != nil {
			return
		}
		cs.checkpoint(c)
	}
}

func (cs *classState) checkpoint(c checkpoint.Codec) {
	cs.random.Checkpoint(c)
	if c.Int(&cs.next); cs.next < 0 || cs.next > cs.MaxArrivals {
		c.Fail("arrivals class %s snapshot has %d arrivals, cap is %d", cs.Name, cs.next, cs.MaxArrivals)
		return
	}
	cs.sndSched.CheckpointTimer(c, &cs.arriveTm, cs.arriveFn)
	pool := len(cs.pool)
	if c.Int(&pool); pool < 0 || pool > cs.MaxArrivals {
		c.Fail("arrivals class %s snapshot has implausible pool depth %d", cs.Name, pool)
		return
	}
	c.I64(&cs.constructions)
	c.I64(&cs.reclaimed)
	c.I64(&cs.completions)
	c.F64(&cs.durSum)
	c.Int(&cs.pop)
	c.Int(&cs.peak)
	c.F64(&cs.popIntegral)
	c.F64(&cs.lastChange)
	c.F64(&cs.palmSum)
	c.Int(&cs.palmN)
	c.F64(&cs.lastArrivalAt)
	c.F64(&cs.lastPop)
	c.Bool(&cs.openCycle)
	live := c.Len(len(cs.live) - len(cs.free))
	for j, i := 0, -1; j < live && c.Err() == nil; j++ {
		i = cs.checkpointTransfer(c, i)
	}
	if !c.Saving() && c.Err() == nil {
		cs.refill(pool)
	}
}

// checkpointTransfer walks the record of the first live transfer after
// arrival prev through c — its arrival index, start time, completion
// flag and protocol state — and returns the index. A restore reads the
// index, which must follow prev within the arrivals served, and
// re-attaches that arrival on a freshly built endpoint pair before
// overlaying its state.
func (cs *classState) checkpointTransfer(c checkpoint.Codec, prev int) int {
	i := prev + 1
	for c.Saving() && cs.transfer(i) == nil {
		i++
	}
	if c.Int(&i); c.Err() != nil {
		return i
	}
	if i <= prev || i >= cs.next {
		c.Fail("arrivals class %s snapshot lists live transfer %d after %d of %d arrivals", cs.Name, i, prev, cs.next)
		return i
	}
	t := cs.transfer(i)
	if !c.Saving() {
		t = cs.reattach(i)
	}
	c.F64(&t.startedAt)
	c.Bool(&t.done)
	t.ends.CheckpointPair(c)
	return i
}

// reattach files arrival i in the live table on a freshly built endpoint
// pair and attaches it, for a restore to overlay its saved state.
func (cs *classState) reattach(i int) *transfer {
	t := cs.admit(i)
	flow := cs.firstFlow + i
	t.ends = cs.endpoints(nil, flow, 0, FlowSeed(cs.Seed, i))
	cs.attach(flow, t.ends)
	return t
}

// refill refills the recycling pool to its saved depth with freshly
// built pairs: pool entries carry no live state (Renew gives them their
// fresh state on reuse, and accepts a pair that never started), so depth
// is the only thing that matters — it keeps the construction ledger on
// the uninterrupted run's trajectory.
func (cs *classState) refill(depth int) {
	for j := 0; j < depth; j++ {
		cs.pool = append(cs.pool, cs.endpoints(nil, cs.firstFlow, 0, FlowSeed(cs.Seed, 0)))
	}
}
