package arrivals

import (
	"repro/internal/checkpoint"
	"repro/internal/palm"
)

// Save writes the engine's run-time state in class declaration order:
// the class RNG and arrival cursor, the pending next-arrival timer, the
// population and Palm bookkeeping, and — inline — every live transfer's
// protocol state.
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
	w.Int(len(cs.cycles))
	for _, c := range cs.cycles {
		w.F64(c.Duration)
		w.F64(c.Value)
	}
	w.F64(cs.lastArrivalAt)
	w.F64(cs.lastPop)
	w.Bool(cs.openCycle)
	for i := 0; i < cs.next; i++ {
		sl := &cs.slots[i]
		w.F64(sl.startedAt)
		w.Bool(sl.done)
		w.Bool(sl.reclaimed)
		if sl.reclaimed {
			continue
		}
		switch cs.Proto {
		case TFRC:
			sl.tfrcSnd.Save(w)
			sl.tfrcRcv.Save(w)
		case TCP:
			sl.tcpSnd.Save(w)
			sl.tcpRcv.Save(w)
		case CBR:
			sl.probe.Save(w)
		}
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
	nc := r.Count()
	cs.cycles = cs.cycles[:0]
	for i := 0; i < nc; i++ {
		cs.cycles = append(cs.cycles, palm.Cycle{Duration: r.F64(), Value: r.F64()})
	}
	cs.lastArrivalAt = r.F64()
	cs.lastPop = r.F64()
	cs.openCycle = r.Bool()
	for i := 0; i < cs.next; i++ {
		if r.Err() != nil {
			return
		}
		sl := &cs.slots[i]
		sl.startedAt = r.F64()
		sl.done = r.Bool()
		sl.reclaimed = r.Bool()
		if sl.reclaimed {
			continue
		}
		flow := cs.firstFlow + i
		seed := FlowSeed(cs.Seed, i)
		switch cs.Proto {
		case TFRC:
			cfg := cs.TFRC
			cfg.Seed = seed
			sl.tfrcSnd, sl.tfrcRcv = cs.newTFRC(flow, cfg)
			cs.eng.host.AttachLive(flow, sl.tfrcSnd, sl.tfrcRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			sl.tfrcSnd.Restore(r)
			sl.tfrcRcv.Restore(r)
		case TCP:
			cfg := cs.TCP
			sl.tcpSnd, sl.tcpRcv = cs.newTCP(flow, cfg)
			cs.eng.host.AttachLive(flow, sl.tcpSnd, sl.tcpRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			sl.tcpSnd.Restore(r)
			sl.tcpRcv.Restore(r)
		case CBR:
			sl.probe = cs.probe(flow, seed)
			snd, rcv := sl.probe.Endpoints()
			cs.eng.host.AttachLive(flow, snd, rcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
			sl.probe.Restore(r)
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
