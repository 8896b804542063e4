package netsim

import "repro/internal/checkpoint"

// This file is the netsim half of the snapshot protocol: packets, queue
// disciplines, links (with their in-flight pipelines), loss-event
// counters and cross-traffic sources each list their numeric state once,
// in a fixed field order, in one walk over a checkpoint.Codec. A restore
// always runs against a freshly rebuilt object — the declarative build
// path supplies configuration (capacities, rates, callbacks); the walk
// overlays only what running the simulation mutated.

// CheckpointPacket walks every field of a packet through c and returns
// the packet: a save walks p, and a restore fills a packet drawn through
// get. Kind and Hop go out widened, as an Int and an I64.
func CheckpointPacket(c checkpoint.Codec, p *Packet, get func() *Packet) *Packet {
	if !c.Saving() {
		p = get()
	}
	kind, hop := int(p.Kind), int64(p.Hop)
	c.Int(&p.Flow)
	c.I64(&p.Seq)
	c.Int(&p.Size)
	c.F64(&p.SentAt)
	c.Int(&kind)
	c.I64(&p.AckSeq)
	c.F64(&p.Echo)
	c.F64(&p.LossRate)
	c.F64(&p.RecvRate)
	c.F64(&p.RTTEst)
	c.I64(&hop)
	c.Bool(&p.Rev)
	p.Kind, p.Hop = PacketKind(kind), int32(hop)
	return p
}

// Queue discipline tags, written ahead of each queue's state so a
// restore against a differently configured rebuild fails loudly.
const (
	queueTagDropTail  = 1
	queueTagUnbounded = 2
	queueTagRED       = 3
)

// checkpointQueue walks a queue's discipline tag, counters and contents
// through c. A restore checks the tag against the freshly rebuilt queue
// and draws its packets through get (the network freelist), so the
// caller's ledger overlay settles the issued/returned counts.
func checkpointQueue(c checkpoint.Codec, q Queue, get func() *Packet) {
	var tag uint8
	switch q.(type) {
	case *DropTail:
		tag = queueTagDropTail
	case *Unbounded:
		tag = queueTagUnbounded
	case *RED:
		tag = queueTagRED
	default:
		panic("netsim: checkpointQueue on an unknown queue discipline")
	}
	saved := tag
	if c.U8(&saved); saved != tag {
		c.Fail("queue discipline mismatch: saved tag %d, rebuilt tag %d", saved, tag)
		return
	}
	switch t := q.(type) {
	case *DropTail:
		c.I64(&t.Drops)
		checkpointRing(c, &t.ring, "DropTail", get)
	case *Unbounded:
		c.Int(&t.HighWater)
		checkpointRing(c, &t.ring, "", get)
	case *RED:
		c.F64(&t.avg)
		c.Int(&t.count)
		c.F64(&t.idleAt)
		c.Bool(&t.idle)
		c.F64(&t.meanPkt)
		t.random.Checkpoint(c)
		c.I64(&t.Drops)
		c.I64(&t.EarlyDrops)
		checkpointRing(c, &t.ring, "RED", get)
	}
}

// checkpointRing walks a queue's packets through c in FIFO order. A
// restore fills the rebuilt ring, which must be empty, with packets
// drawn through get: a bounded discipline (named by bounded) refuses
// more packets than its capacity, an unbounded one grows to fit.
func checkpointRing(c checkpoint.Codec, ring *pktRing, bounded string, get func() *Packet) {
	n := c.Len(ring.count)
	if !c.Saving() {
		switch {
		case ring.count != 0:
			c.Fail("restoring into a non-empty queue (%d packets)", ring.count)
		case bounded != "" && n > len(ring.buf):
			c.Fail("%s holds %d packets, rebuilt capacity %d", bounded, n, len(ring.buf))
		}
		for c.Err() == nil && n > len(ring.buf) {
			ring.grow()
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Saving() {
			CheckpointPacket(c, ring.buf[(ring.head+i)%len(ring.buf)], get)
		} else {
			ring.push(CheckpointPacket(c, nil, get))
		}
	}
}

// Checkpoint walks the link's mutated state through c: effective rate
// (fault SetRate events change it), busy flag, forwarding counters, the
// queue, the departure of the packet in service and the propagation
// pipeline, each packet with its delivery timer. The walk reads the link
// unsettled: settling schedules deliveries, so a save that settled
// would move the sequence numbers the rest of the run draws. A restore
// into a freshly rebuilt link draws its packets through get, checks the
// saved departure against the restored clock and re-arms the delivery
// timers under their original identities.
func (l *Link) Checkpoint(c checkpoint.Codec, get func() *Packet) {
	c.F64(&l.Rate)
	c.Bool(&l.busy)
	c.I64(&l.FaultDrops)
	c.I64(&l.forwarded)
	c.I64(&l.bytesForwarded)
	checkpointQueue(c, l.queue, get)
	if l.busy {
		c.F64(&l.txAt)
		c.F64(&l.txKey)
		c.Int(&l.txSize)
		if !c.Saving() && c.Err() == nil && (l.txKey > l.sched.Now() || l.txAt < l.txKey) {
			c.Fail("saved departure at %v of a serialization started at %v does not fit the restored clock %v",
				l.txAt, l.txKey, l.sched.Now())
			return
		}
	}
	n := c.Len(l.propLen)
	for i := 0; i < n && c.Err() == nil; i++ {
		var e propEntry
		if c.Saving() {
			e = l.prop[(l.propHead+i)%len(l.prop)]
		}
		e.p = CheckpointPacket(c, e.p, get)
		if !l.sched.CheckpointTimer(c, &e.tm, l.deliverFn) && !c.Saving() {
			c.Fail("propagating packet saved without a live delivery timer")
		}
		if !c.Saving() && c.Err() == nil {
			l.propPush(e.p, e.tm)
		}
	}
}

// Checkpoint walks the loss-event counter's grouping state and interval
// history through c. The rtt source stays the rebuilt one.
func (lc *LossEventCounter) Checkpoint(c checkpoint.Codec) {
	c.Bool(&lc.eventOpen)
	c.F64(&lc.eventStart)
	c.I64(&lc.eventSeq)
	c.I64(&lc.lastEventSeq)
	c.I64(&lc.Events)
	lc.Intervals = checkpoint.Resize(lc.Intervals, c.Len(len(lc.Intervals)))
	for i := range lc.Intervals {
		c.F64(&lc.Intervals[i])
	}
}

// Checkpoint walks the cross-traffic source's run-time state through c:
// its RNG stream, the burst and packet counters, and the pending timer
// with the callback it fires, which a restore re-arms. Rates, sizes and
// the flow id come from the rebuild; the flow id is walked to check the
// pairing.
func (ct *CrossTraffic) Checkpoint(c checkpoint.Codec) {
	if !c.Same(ct.Flow, "cross-traffic flow") {
		return
	}
	ct.random.Checkpoint(c)
	c.Int(&ct.remaining)
	c.I64(&ct.PacketsSent)
	c.Bool(&ct.started)
	c.Bool(&ct.stepping)
	fn := ct.startBurstFn
	if ct.stepping {
		fn = ct.burstStepFn
	}
	ct.sched.CheckpointTimer(c, &ct.tm, fn)
}
