package cbr

import "repro/internal/checkpoint"

// Checkpoint walks the probe's run-time state through c, re-arming its
// pacing timer on a restore into a freshly built probe for the same
// flow. Rate, size and grouping window are class configuration and come
// from the rebuild; the transfer volume is drawn per arrival, so it
// rides in the snapshot.
func (p *Probe) Checkpoint(c checkpoint.Codec) {
	if !c.Same(p.flow, "cbr probe flow") {
		return
	}
	p.random.Checkpoint(c)
	c.I64(&p.nextSeq)
	c.I64(&p.total)
	c.Bool(&p.started)
	c.Bool(&p.done)
	p.sched.CheckpointTimer(c, &p.sendTimer, p.sendNextFn)
	c.I64(&p.expected)
	p.events.Checkpoint(c)
	c.F64(&p.measStart)
	c.I64(&p.pktsSent)
	c.I64(&p.eventsBase)
}

// CheckpointPair is Checkpoint: the probe is both ends of its flow. The
// churn engine records every transfer's endpoints through it.
func (p *Probe) CheckpointPair(c checkpoint.Codec) { p.Checkpoint(c) }
