package cbr

import "repro/internal/checkpoint"

// Save writes the probe's run-time state. Rate, size and grouping
// window are class configuration and come from the rebuild; the
// transfer volume is drawn per arrival, so it rides in the snapshot.
func (p *Probe) Save(w *checkpoint.Writer) {
	w.Int(p.flow)
	for _, word := range p.random.State() {
		w.U64(word)
	}
	w.I64(p.nextSeq)
	w.I64(p.total)
	w.Bool(p.started)
	w.Bool(p.done)
	w.Timer(p.sendTimer.State())
	w.I64(p.expected)
	p.events.Save(w)
	w.F64(p.measStart)
	w.I64(p.pktsSent)
	w.I64(p.eventsBase)
}

// Restore overlays state saved by Save onto a freshly built probe for
// the same flow and re-arms its pacing timer.
func (p *Probe) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != p.flow {
		r.Fail("cbr probe snapshot is for flow %d, rebuilt flow %d", flow, p.flow)
		return
	}
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	p.nextSeq = r.I64()
	p.total = r.I64()
	p.started = r.Bool()
	p.done = r.Bool()
	p.sendTimer = p.sched.RestoreTimer(r.Timer(), p.sendNextFn)
	p.expected = r.I64()
	p.events.Restore(r)
	p.measStart = r.F64()
	p.pktsSent = r.I64()
	p.eventsBase = r.I64()
	if r.Err() == nil {
		p.random.SetState(st)
	}
}
