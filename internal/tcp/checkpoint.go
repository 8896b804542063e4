package tcp

import (
	"sort"

	"repro/internal/checkpoint"
)

// Save writes the sender's run-time state. Configuration comes from the
// rebuild, except the transfer volume: churn flows draw TotalSegments
// per arrival, so it rides in the snapshot.
func (s *Sender) Save(w *checkpoint.Writer) {
	w.Int(s.flow)
	w.I64(s.cfg.TotalSegments)
	w.F64(s.cwnd)
	w.F64(s.ssthresh)
	w.I64(s.nextSeq)
	w.I64(s.highAck)
	w.Int(s.dupacks)
	w.I64(s.recover)
	w.Bool(s.inRec)
	w.F64(s.inflate)
	w.F64(s.srtt)
	w.F64(s.rttvar)
	w.F64(s.rto)
	w.Int(s.backoff)
	w.Timer(s.rtoTimer.State())
	s.lossEvents.Save(w)
	w.Bool(s.started)
	w.Bool(s.done)
	w.F64(s.measStart)
	w.I64(s.pktsSent)
	w.I64(s.acksSeen)
	w.I64(s.acksBase)
	w.I64(s.eventsBase)
	s.rttAcc.Save(w)
	w.Int(s.intervals0)
}

// Restore overlays state saved by Save onto a freshly built sender for
// the same flow and re-arms its retransmission timer.
func (s *Sender) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != s.flow {
		r.Fail("tcp sender snapshot is for flow %d, rebuilt flow %d", flow, s.flow)
		return
	}
	s.cfg.TotalSegments = r.I64()
	s.cwnd = r.F64()
	s.ssthresh = r.F64()
	s.nextSeq = r.I64()
	s.highAck = r.I64()
	s.dupacks = r.Int()
	s.recover = r.I64()
	s.inRec = r.Bool()
	s.inflate = r.F64()
	s.srtt = r.F64()
	s.rttvar = r.F64()
	s.rto = r.F64()
	s.backoff = r.Int()
	s.rtoTimer = s.sched.RestoreTimer(r.Timer(), s.onTimeoutFn)
	s.lossEvents.Restore(r)
	s.started = r.Bool()
	s.done = r.Bool()
	s.measStart = r.F64()
	s.pktsSent = r.I64()
	s.acksSeen = r.I64()
	s.acksBase = r.I64()
	s.eventsBase = r.I64()
	s.rttAcc.Restore(r)
	s.intervals0 = r.Int()
}

// Save writes the receiver's run-time state. The out-of-order set is
// serialized in ascending sequence order so the encoding is canonical
// regardless of map iteration order.
func (rc *Receiver) Save(w *checkpoint.Writer) {
	w.Int(rc.flow)
	w.I64(rc.expected)
	keys := make([]int64, 0, len(rc.ooo))
	for k := range rc.ooo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.I64(k)
	}
	w.Int(rc.unacked)
	w.I64(rc.PacketsReceived)
}

// Restore overlays state saved by Save onto a freshly built receiver
// for the same flow.
func (rc *Receiver) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != rc.flow {
		r.Fail("tcp receiver snapshot is for flow %d, rebuilt flow %d", flow, rc.flow)
		return
	}
	rc.expected = r.I64()
	n := r.Count()
	clear(rc.ooo)
	for i := 0; i < n; i++ {
		rc.ooo[r.I64()] = true
	}
	rc.unacked = r.Int()
	rc.PacketsReceived = r.I64()
}

// Retire marks a never-started sender as completed so it can sit in a
// recycling pool: Renew demands a Quiesced (done) sender, a state a
// running flow only reaches by finishing its transfer. A snapshot
// restore uses it to refill churn pools with freshly built pairs.
func (s *Sender) Retire() {
	if s.started || s.done {
		panic("tcp: Retire on a started sender")
	}
	s.done = true
}
