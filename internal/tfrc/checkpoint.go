package tfrc

import "repro/internal/checkpoint"

// Checkpoint walks the sender's run-time state through c, re-arming its
// pacing and no-feedback timers on a restore into a freshly built sender
// for the same flow. Configuration comes from the rebuild, except the
// transfer volume: churn flows draw TotalPackets per arrival, so it
// rides in the snapshot.
func (s *Sender) Checkpoint(c checkpoint.Codec) {
	if !c.Same(s.flow, "tfrc sender flow") {
		return
	}
	c.I64(&s.cfg.TotalPackets)
	c.F64(&s.rate)
	s.rtt.Checkpoint(c)
	c.I64(&s.nextSeq)
	c.Bool(&s.slowStart)
	s.random.Checkpoint(c)
	s.sched.CheckpointTimer(c, &s.sendTimer, s.sendNextFn)
	s.sched.CheckpointTimer(c, &s.nfTimer, s.onNoFeedbackFn)
	c.Bool(&s.started)
	c.Bool(&s.done)
	c.F64(&s.lastRecvRt)
	c.F64(&s.lastP)
	c.F64(&s.measStart)
	c.I64(&s.pktsSent)
	c.F64(&s.minRate)
	s.rttAcc.Checkpoint(c)
	c.I64(&s.fbSeen)
	c.I64(&s.nfHalvings)
	c.I64(&s.fbBase)
	c.I64(&s.nfBase)
}

// Checkpoint walks the receiver's run-time state through c, re-arming
// its feedback timer on a restore into a freshly built receiver for the
// same flow.
func (rc *Receiver) Checkpoint(c checkpoint.Codec) {
	if !c.Same(rc.flow, "tfrc receiver flow") {
		return
	}
	c.I64(&rc.expected)
	c.I64(&rc.highest)
	rc.events.Checkpoint(c)
	rc.est.Checkpoint(c)
	c.Bool(&rc.sawLoss)
	c.F64(&rc.senderRTT)
	c.F64(&rc.lastSentAt)
	c.F64(&rc.lastRecvAt)
	c.F64(&rc.bytesSinceFB)
	c.F64(&rc.lastFBAt)
	rc.sched.CheckpointTimer(c, &rc.fbTimer, rc.sendFBFn)
	c.Int(&rc.silentFB)
	c.I64(&rc.PacketsReceived)
	c.I64(&rc.eventsBase)
	c.Int(&rc.intervals0)
}

// CheckpointPair walks the sender's state and then its receiver's: the
// whole pair, as the churn engine records a transfer.
func (s *Sender) CheckpointPair(c checkpoint.Codec) {
	s.Checkpoint(c)
	s.receiver.Checkpoint(c)
}
