package arrivals

import "repro/internal/checkpoint"

// Save writes the engine's run-time state in class declaration order:
// the class RNG and arrival cursor, the pending next-arrival timer, the
// population and running Palm sums, and the live transfers in arrival
// order, each with its protocol state inline. Reclaimed transfers leave
// nothing behind, so the section follows the live population, not the
// number of arrivals served.
func (e *Engine) Save(w *checkpoint.Writer) {
	w.Int(len(e.classes))
	for _, cs := range e.classes {
		cs.save(w)
	}
}

// Restore overlays state saved by Save onto a freshly armed engine built
// from the same class list. Live transfers are re-attached with freshly
// built endpoint pairs (the protocol Renew contract makes a fresh pair
// and a recycled one indistinguishable) and their protocol state is then
// overlaid; the recycling pools are refilled to their saved depths so
// the construction ledger stays on the uninterrupted run's trajectory.
// Run it after the schedulers have been reset and their clocks restored,
// and before the network's flow overlay, which validates the re-attached
// population.
func (e *Engine) Restore(r *checkpoint.Reader) {
	if !e.armed {
		r.Fail("arrivals engine restored before Arm")
		return
	}
	if n := r.Count(); n != len(e.classes) {
		r.Fail("arrivals snapshot has %d classes, rebuilt engine has %d", n, len(e.classes))
		return
	}
	for _, cs := range e.classes {
		if r.Err() != nil {
			return
		}
		cs.restore(r)
	}
}

func (cs *classState) save(w *checkpoint.Writer) {
	for _, word := range cs.random.State() {
		w.U64(word)
	}
	w.Int(cs.next)
	w.Timer(cs.arriveTm.State())
	switch cs.Proto {
	case TFRC:
		w.Int(len(cs.tfrcPool))
	case TCP:
		w.Int(len(cs.tcpPool))
	case CBR:
		w.Int(len(cs.cbrPool))
	}
	w.I64(cs.constructions)
	w.I64(cs.reclaimed)
	w.I64(cs.completions)
	w.F64(cs.durSum)
	w.Int(cs.pop)
	w.Int(cs.peak)
	w.F64(cs.popIntegral)
	w.F64(cs.lastChange)
	w.F64(cs.palmSum)
	w.Int(cs.palmN)
	w.F64(cs.lastArrivalAt)
	w.F64(cs.lastPop)
	w.Bool(cs.openCycle)
	w.Int(len(cs.live) - len(cs.free))
	for i := 0; i < cs.next; i++ {
		if t := cs.transfer(i); t != nil {
			cs.saveTransfer(w, i, t)
		}
	}
}

// saveTransfer writes live transfer i: its arrival index, start time,
// completion flag and protocol state.
func (cs *classState) saveTransfer(w *checkpoint.Writer, i int, t *transfer) {
	w.Int(i)
	w.F64(t.startedAt)
	w.Bool(t.done)
	switch cs.Proto {
	case TFRC:
		t.tfrcSnd.Save(w)
		t.tfrcRcv.Save(w)
	case TCP:
		t.tcpSnd.Save(w)
		t.tcpRcv.Save(w)
	case CBR:
		t.probe.Save(w)
	}
}

func (cs *classState) restore(r *checkpoint.Reader) {
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	next := r.Int()
	if next < 0 || next > cs.MaxArrivals {
		r.Fail("arrivals class %s snapshot has %d arrivals, cap is %d", cs.Name, next, cs.MaxArrivals)
		return
	}
	cs.next = next
	cs.arriveTm = cs.sndSched.RestoreTimer(r.Timer(), cs.arriveFn)
	pool := r.Int()
	if pool < 0 || pool > cs.MaxArrivals {
		r.Fail("arrivals class %s snapshot has implausible pool depth %d", cs.Name, pool)
		return
	}
	cs.constructions = r.I64()
	cs.reclaimed = r.I64()
	cs.completions = r.I64()
	cs.durSum = r.F64()
	cs.pop = r.Int()
	cs.peak = r.Int()
	cs.popIntegral = r.F64()
	cs.lastChange = r.F64()
	cs.palmSum = r.F64()
	cs.palmN = r.Int()
	cs.lastArrivalAt = r.F64()
	cs.lastPop = r.F64()
	cs.openCycle = r.Bool()
	n := r.Count()
	prev := -1
	for j := 0; j < n; j++ {
		i := r.Int()
		if r.Err() != nil {
			return
		}
		if i <= prev || i >= cs.next {
			r.Fail("arrivals class %s snapshot lists live transfer %d after %d of %d arrivals", cs.Name, i, prev, cs.next)
			return
		}
		prev = i
		t := cs.admit(i)
		t.startedAt = r.F64()
		t.done = r.Bool()
		flow := cs.firstFlow + i
		seed := FlowSeed(cs.Seed, i)
		switch cs.Proto {
		case TFRC:
			cfg := cs.TFRC
			cfg.Seed = seed
			t.tfrcSnd, t.tfrcRcv = cs.newTFRC(flow, cfg)
			cs.eng.host.AttachLive(flow, t.tfrcSnd, t.tfrcRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			t.tfrcSnd.Restore(r)
			t.tfrcRcv.Restore(r)
		case TCP:
			t.tcpSnd, t.tcpRcv = cs.newTCP(flow, cs.TCP)
			cs.eng.host.AttachLive(flow, t.tcpSnd, t.tcpRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			t.tcpSnd.Restore(r)
			t.tcpRcv.Restore(r)
		case CBR:
			t.probe = cs.probe(flow, seed)
			snd, rcv := t.probe.Endpoints()
			cs.eng.host.AttachLive(flow, snd, rcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			t.probe.Restore(r)
		}
	}
	// Refill the recycling pool to its saved depth with fresh pairs: pool
	// entries carry no live state (Renew reseeds them on reuse), so depth
	// is the only thing that matters — it keeps the construction ledger on
	// the uninterrupted run's trajectory. The fresh senders are Retired
	// because Renew demands a quiescent (completed) pair — the only kind
	// the running engine ever pools.
	if r.Err() != nil {
		return
	}
	for j := 0; j < pool; j++ {
		switch cs.Proto {
		case TFRC:
			cfg := cs.TFRC
			cfg.Seed = FlowSeed(cs.Seed, 0)
			snd, rcv := cs.newTFRC(cs.firstFlow, cfg)
			snd.Retire()
			cs.tfrcPool = append(cs.tfrcPool, tfrcPair{snd, rcv})
		case TCP:
			snd, rcv := cs.newTCP(cs.firstFlow, cs.TCP)
			snd.Retire()
			cs.tcpPool = append(cs.tcpPool, tcpPair{snd, rcv})
		case CBR:
			cs.cbrPool = append(cs.cbrPool, cs.probe(cs.firstFlow, FlowSeed(cs.Seed, 0)))
		}
	}
	if r.Err() == nil {
		cs.random.SetState(st)
	}
}
