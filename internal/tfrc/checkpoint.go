package tfrc

import "repro/internal/checkpoint"

// Save writes the sender's run-time state. Configuration comes from the
// rebuild, except the transfer volume: churn flows draw TotalPackets per
// arrival, so it rides in the snapshot.
func (s *Sender) Save(w *checkpoint.Writer) {
	w.Int(s.flow)
	w.I64(s.cfg.TotalPackets)
	w.F64(s.rate)
	s.rtt.Save(w)
	w.I64(s.nextSeq)
	w.Bool(s.slowStart)
	for _, word := range s.random.State() {
		w.U64(word)
	}
	w.Timer(s.sendTimer.State())
	w.Timer(s.nfTimer.State())
	w.Bool(s.started)
	w.Bool(s.done)
	w.F64(s.lastRecvRt)
	w.F64(s.lastP)
	w.F64(s.measStart)
	w.I64(s.pktsSent)
	w.F64(s.minRate)
	s.rttAcc.Save(w)
	w.I64(s.fbSeen)
	w.I64(s.nfHalvings)
	w.I64(s.fbBase)
	w.I64(s.nfBase)
}

// Restore overlays state saved by Save onto a freshly built sender for
// the same flow and re-arms its pacing and no-feedback timers.
func (s *Sender) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != s.flow {
		r.Fail("tfrc sender snapshot is for flow %d, rebuilt flow %d", flow, s.flow)
		return
	}
	s.cfg.TotalPackets = r.I64()
	s.rate = r.F64()
	s.rtt.Restore(r)
	s.nextSeq = r.I64()
	s.slowStart = r.Bool()
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	s.sendTimer = s.sched.RestoreTimer(r.Timer(), s.sendNextFn)
	s.nfTimer = s.sched.RestoreTimer(r.Timer(), s.onNoFeedbackFn)
	s.started = r.Bool()
	s.done = r.Bool()
	s.lastRecvRt = r.F64()
	s.lastP = r.F64()
	s.measStart = r.F64()
	s.pktsSent = r.I64()
	s.minRate = r.F64()
	s.rttAcc.Restore(r)
	s.fbSeen = r.I64()
	s.nfHalvings = r.I64()
	s.fbBase = r.I64()
	s.nfBase = r.I64()
	if r.Err() == nil {
		s.random.SetState(st)
	}
}

// Save writes the receiver's run-time state.
func (rc *Receiver) Save(w *checkpoint.Writer) {
	w.Int(rc.flow)
	w.I64(rc.expected)
	w.I64(rc.highest)
	rc.events.Save(w)
	rc.est.Save(w)
	w.Bool(rc.sawLoss)
	w.F64(rc.senderRTT)
	w.F64(rc.lastSentAt)
	w.F64(rc.lastRecvAt)
	w.F64(rc.bytesSinceFB)
	w.F64(rc.lastFBAt)
	w.Timer(rc.fbTimer.State())
	w.Int(rc.silentFB)
	w.I64(rc.PacketsReceived)
	w.I64(rc.eventsBase)
	w.Int(rc.intervals0)
}

// Restore overlays state saved by Save onto a freshly built receiver
// for the same flow and re-arms its feedback timer.
func (rc *Receiver) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != rc.flow {
		r.Fail("tfrc receiver snapshot is for flow %d, rebuilt flow %d", flow, rc.flow)
		return
	}
	rc.expected = r.I64()
	rc.highest = r.I64()
	rc.events.Restore(r)
	rc.est.Restore(r)
	rc.sawLoss = r.Bool()
	rc.senderRTT = r.F64()
	rc.lastSentAt = r.F64()
	rc.lastRecvAt = r.F64()
	rc.bytesSinceFB = r.F64()
	rc.lastFBAt = r.F64()
	rc.fbTimer = rc.sched.RestoreTimer(r.Timer(), rc.sendFBFn)
	rc.silentFB = r.Int()
	rc.PacketsReceived = r.I64()
	rc.eventsBase = r.I64()
	rc.intervals0 = r.Int()
}

// Retire marks a never-started sender as completed so it can sit in a
// recycling pool: Renew demands a Quiesced (done) sender, a state a
// running flow only reaches by finishing its transfer. A snapshot
// restore uses it to refill churn pools with freshly built pairs.
func (s *Sender) Retire() {
	if s.started || s.done {
		panic("tfrc: Retire on a started sender")
	}
	s.done = true
}
