package netsim

import "repro/internal/checkpoint"

// This file is the netsim half of the snapshot protocol: packets, queue
// disciplines, links (with their in-flight pipelines) and loss-event
// counters serialize their numeric state in a fixed field order. Restore
// always runs against a freshly rebuilt object — the declarative build
// path supplies configuration (capacities, rates, callbacks); restore
// overlays only what running the simulation mutated.

// SavePacket writes every field of a packet.
func SavePacket(w *checkpoint.Writer, p *Packet) {
	w.Int(p.Flow)
	w.I64(p.Seq)
	w.Int(p.Size)
	w.F64(p.SentAt)
	w.Int(int(p.Kind))
	w.I64(p.AckSeq)
	w.F64(p.Echo)
	w.F64(p.LossRate)
	w.F64(p.RecvRate)
	w.F64(p.RTTEst)
	w.I64(int64(p.Hop))
	w.Bool(p.Rev)
}

// RestorePacket reads a packet record written by SavePacket into p.
func RestorePacket(r *checkpoint.Reader, p *Packet) {
	p.Flow = r.Int()
	p.Seq = r.I64()
	p.Size = r.Int()
	p.SentAt = r.F64()
	p.Kind = PacketKind(r.Int())
	p.AckSeq = r.I64()
	p.Echo = r.F64()
	p.LossRate = r.F64()
	p.RecvRate = r.F64()
	p.RTTEst = r.F64()
	p.Hop = int32(r.I64())
	p.Rev = r.Bool()
}

// Queue discipline tags, written ahead of each queue's state so a
// restore against a differently configured rebuild fails loudly.
const (
	queueTagDropTail  = 1
	queueTagUnbounded = 2
	queueTagRED       = 3
)

// SaveQueue writes a queue's discipline tag, counters and contents.
func SaveQueue(w *checkpoint.Writer, q Queue) {
	switch t := q.(type) {
	case *DropTail:
		w.U8(queueTagDropTail)
		w.I64(t.Drops)
		saveRing(w, &t.ring)
	case *Unbounded:
		w.U8(queueTagUnbounded)
		w.Int(t.HighWater)
		saveRing(w, &t.ring)
	case *RED:
		w.U8(queueTagRED)
		w.F64(t.avg)
		w.Int(t.count)
		w.F64(t.idleAt)
		w.Bool(t.idle)
		w.F64(t.meanPkt)
		st := t.random.State()
		for _, word := range st {
			w.U64(word)
		}
		w.I64(t.Drops)
		w.I64(t.EarlyDrops)
		saveRing(w, &t.ring)
	default:
		panic("netsim: SaveQueue on an unknown queue discipline")
	}
}

// RestoreQueue overlays saved state onto a freshly rebuilt queue of the
// same discipline. Packets are drawn through get (the network freelist),
// so the caller's ledger overlay settles the issued/returned counts.
func RestoreQueue(r *checkpoint.Reader, q Queue, get func() *Packet) {
	tag := r.U8()
	if r.Err() != nil {
		return
	}
	switch t := q.(type) {
	case *DropTail:
		if tag != queueTagDropTail {
			r.Fail("queue discipline mismatch: saved tag %d, rebuilt DropTail", tag)
			return
		}
		t.Drops = r.I64()
		n := r.Count()
		if n > len(t.ring.buf) {
			r.Fail("DropTail holds %d packets, rebuilt capacity %d", n, len(t.ring.buf))
			return
		}
		restoreRingPackets(r, &t.ring, n, get)
	case *Unbounded:
		if tag != queueTagUnbounded {
			r.Fail("queue discipline mismatch: saved tag %d, rebuilt Unbounded", tag)
			return
		}
		hw := r.Int()
		n := r.Count()
		for t.ring.count+n > len(t.ring.buf) {
			t.ring.grow()
		}
		restoreRingPackets(r, &t.ring, n, get)
		t.HighWater = hw
	case *RED:
		if tag != queueTagRED {
			r.Fail("queue discipline mismatch: saved tag %d, rebuilt RED", tag)
			return
		}
		t.avg = r.F64()
		t.count = r.Int()
		t.idleAt = r.F64()
		t.idle = r.Bool()
		t.meanPkt = r.F64()
		var st [4]uint64
		for i := range st {
			st[i] = r.U64()
		}
		t.Drops = r.I64()
		t.EarlyDrops = r.I64()
		n := r.Count()
		if n > len(t.ring.buf) {
			r.Fail("RED holds %d packets, rebuilt capacity %d", n, len(t.ring.buf))
			return
		}
		restoreRingPackets(r, &t.ring, n, get)
		if r.Err() == nil {
			t.random.SetState(st)
		}
	default:
		r.Fail("RestoreQueue on an unknown queue discipline (saved tag %d)", tag)
	}
}

func saveRing(w *checkpoint.Writer, ring *pktRing) {
	w.Int(ring.count)
	for i := 0; i < ring.count; i++ {
		SavePacket(w, ring.buf[(ring.head+i)%len(ring.buf)])
	}
}

func restoreRingPackets(r *checkpoint.Reader, ring *pktRing, n int, get func() *Packet) {
	if ring.count != 0 {
		r.Fail("restoring into a non-empty queue (%d packets)", ring.count)
		return
	}
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		p := get()
		RestorePacket(r, p)
		ring.push(p)
	}
}

// Save writes the link's mutated state: effective rate (fault SetRate
// events change it), busy flag, forwarding counters, the queue, the
// packet being serialized and the propagation pipeline, each with its
// pending timer.
func (l *Link) Save(w *checkpoint.Writer) {
	w.F64(l.Rate)
	w.Bool(l.busy)
	w.I64(l.FaultDrops)
	w.I64(l.Forwarded)
	w.I64(l.BytesForwarded)
	SaveQueue(w, l.queue)
	w.Bool(l.txPkt != nil)
	if l.txPkt != nil {
		SavePacket(w, l.txPkt)
		w.Timer(l.txTm.State())
	}
	w.Int(l.propLen)
	for i := 0; i < l.propLen; i++ {
		e := l.prop[(l.propHead+i)%len(l.prop)]
		SavePacket(w, e.p)
		w.Timer(e.tm.State())
	}
}

// Restore overlays saved state onto a freshly rebuilt link and re-arms
// the serialization and delivery timers with their original identities.
func (l *Link) Restore(r *checkpoint.Reader, get func() *Packet) {
	l.Rate = r.F64()
	l.busy = r.Bool()
	l.FaultDrops = r.I64()
	l.Forwarded = r.I64()
	l.BytesForwarded = r.I64()
	RestoreQueue(r, l.queue, get)
	if r.Bool() {
		p := get()
		RestorePacket(r, p)
		st := r.Timer()
		if r.Err() != nil {
			return
		}
		if !st.OK {
			r.Fail("serializing packet saved without a live tx timer")
			return
		}
		l.txPkt = p
		l.txTm = l.sched.RestoreTimer(st, l.onTxDoneFn)
	}
	n := r.Count()
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		p := get()
		RestorePacket(r, p)
		st := r.Timer()
		if !st.OK {
			r.Fail("propagating packet saved without a live delivery timer")
			return
		}
		l.propPush(p, l.sched.RestoreTimer(st, l.deliverOldestFn))
	}
}

// Save writes the loss-event counter's grouping state and interval
// history.
func (c *LossEventCounter) Save(w *checkpoint.Writer) {
	w.Bool(c.eventOpen)
	w.F64(c.eventStart)
	w.I64(c.eventSeq)
	w.I64(c.lastEventSeq)
	w.I64(c.Events)
	w.Int(len(c.Intervals))
	for _, v := range c.Intervals {
		w.F64(v)
	}
}

// Restore overlays a counter saved by Save. The rtt source stays the
// rebuilt one.
func (c *LossEventCounter) Restore(r *checkpoint.Reader) {
	c.eventOpen = r.Bool()
	c.eventStart = r.F64()
	c.eventSeq = r.I64()
	c.lastEventSeq = r.I64()
	c.Events = r.I64()
	n := r.Count()
	c.Intervals = c.Intervals[:0]
	for i := 0; i < n; i++ {
		c.Intervals = append(c.Intervals, r.F64())
	}
}

// Save writes the cross-traffic source's run-time state: its RNG
// stream, the burst and sequence counters, and the pending timer tagged
// with the callback it fires. Rates, sizes and the flow id come from
// the rebuild; the flow id is written to check the pairing.
func (c *CrossTraffic) Save(w *checkpoint.Writer) {
	w.Int(c.Flow)
	for _, word := range c.random.State() {
		w.U64(word)
	}
	w.Int(c.remaining)
	w.I64(c.seq)
	w.I64(c.PacketsSent)
	w.Bool(c.started)
	w.Bool(c.stepping)
	w.Timer(c.tm.State())
}

// Restore overlays state saved by Save onto a freshly built source for
// the same flow and re-arms its pending timer on the callback it was
// saved with.
func (c *CrossTraffic) Restore(r *checkpoint.Reader) {
	if flow := r.Int(); flow != c.Flow {
		r.Fail("cross-traffic snapshot is for flow %d, rebuilt flow %d", flow, c.Flow)
		return
	}
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	c.remaining = r.Int()
	c.seq = r.I64()
	c.PacketsSent = r.I64()
	c.started = r.Bool()
	c.stepping = r.Bool()
	fn := c.startBurstFn
	if c.stepping {
		fn = c.burstStepFn
	}
	c.tm = c.sched.RestoreTimer(r.Timer(), fn)
	if r.Err() == nil {
		c.random.SetState(st)
	}
}
