package tcp

import (
	"slices"

	"repro/internal/checkpoint"
)

// Checkpoint walks the sender's run-time state through c, re-arming its
// retransmission timer on a restore into a freshly built sender for the
// same flow. Configuration comes from the rebuild, except the transfer
// volume: churn flows draw TotalSegments per arrival, so it rides in the
// snapshot.
func (s *Sender) Checkpoint(c checkpoint.Codec) {
	if !c.Same(s.flow, "tcp sender flow") {
		return
	}
	c.I64(&s.cfg.TotalSegments)
	c.F64(&s.cwnd)
	c.F64(&s.ssthresh)
	c.I64(&s.nextSeq)
	c.I64(&s.highAck)
	c.Int(&s.dupacks)
	c.I64(&s.recover)
	c.Bool(&s.inRec)
	c.F64(&s.inflate)
	c.F64(&s.srtt)
	c.F64(&s.rttvar)
	c.F64(&s.rto)
	c.Int(&s.backoff)
	s.sched.CheckpointTimer(c, &s.rtoTimer, s.onTimeoutFn)
	s.lossEvents.Checkpoint(c)
	c.Bool(&s.started)
	c.Bool(&s.done)
	c.F64(&s.measStart)
	c.I64(&s.pktsSent)
	c.I64(&s.acksSeen)
	c.I64(&s.acksBase)
	c.I64(&s.eventsBase)
	s.rttAcc.Checkpoint(c)
	c.Int(&s.intervals0)
}

// Checkpoint walks the receiver's run-time state through c onto a
// freshly built receiver for the same flow. The out-of-order set goes
// out in ascending sequence order, so the encoding is canonical
// whatever the map's iteration order, and a restore rebuilds the set.
func (rc *Receiver) Checkpoint(c checkpoint.Codec) {
	if !c.Same(rc.flow, "tcp receiver flow") {
		return
	}
	c.I64(&rc.expected)
	var ooo []int64
	if c.Saving() {
		ooo = make([]int64, 0, len(rc.ooo))
		for k := range rc.ooo {
			ooo = append(ooo, k)
		}
		slices.Sort(ooo)
	}
	ooo = checkpoint.Resize(ooo, c.Len(len(ooo)))
	for i := range ooo {
		c.I64(&ooo[i])
	}
	if !c.Saving() {
		clear(rc.ooo)
		for _, k := range ooo {
			rc.ooo[k] = true
		}
	}
	c.Int(&rc.unacked)
	c.I64(&rc.PacketsReceived)
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
