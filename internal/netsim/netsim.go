// Package netsim provides the packet-level primitives of the network
// simulator built on the discrete-event engine (package des): links with
// finite rate and propagation delay, DropTail and RED queues, endpoints,
// loss-event accounting and unresponsive cross-traffic sources. Package
// topology assembles these primitives into network graphs (the paper's
// dumbbell is the two-node special case).
//
// Conventions: sizes are in bytes, rates in bytes/second, times in
// seconds. Queues are FIFO, so a same-path packet stream is never
// reordered; protocols may treat sequence gaps as losses immediately.
//
// A packet costs each link it crosses one scheduler event, its
// delivery. The end of its serialization is link state, not an event:
// the link settles it, in the scheduler's exact (time, key) order,
// whenever anything touches the link — a Send, a delivery, FlushQueue,
// SetRate or a read of its counters — so every observer sees the link
// as a pipeline with an event per serialization end would have left it.
// Change a link's rate mid-run with SetRate.
//
// Packet memory is recycled: sources draw packets from the network's
// freelist (Network.GetPacket) and the simulator returns them after the
// destination endpoint's Receive returns, or at the drop point for
// packets rejected by a queue. Endpoints must therefore copy out any
// field they need and never retain a *Packet past Receive.
package netsim

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/rng"
)

// PacketKind distinguishes the payload types carried in the simulator.
type PacketKind int

// Packet kinds.
const (
	// Data is a forward-path payload packet.
	Data PacketKind = iota
	// Ack is a TCP cumulative acknowledgment.
	Ack
	// Feedback is a TFRC receiver report.
	Feedback
)

// Packet is the unit of transmission. Protocol-specific fields are
// folded in directly; unused fields are zero.
type Packet struct {
	// Flow identifies the flow the packet belongs to.
	Flow int
	// Seq is the packet sequence number (in packets, starting at 0).
	Seq int64
	// Size is the wire size in bytes.
	Size int
	// SentAt is the simulated time the packet left the sender.
	SentAt float64
	// Kind is the payload type.
	Kind PacketKind
	// AckSeq is the cumulative acknowledgment (next expected seq) for
	// Ack packets.
	AckSeq int64
	// Echo carries the timestamp being echoed back for RTT measurement.
	Echo float64
	// LossRate and RecvRate carry TFRC feedback (p estimate and
	// measured receive rate in bytes/second).
	LossRate, RecvRate float64
	// RTTEst carries the sender's current round-trip-time estimate on
	// data packets, so the TFRC receiver can group losses into events.
	RTTEst float64
	// Hop is the index of the route hop the packet is currently
	// traversing. It is routing state owned by the topology layer;
	// sources and endpoints never touch it.
	Hop int32
	// Rev marks a packet traversing its flow's routed reverse path
	// (feedback and acknowledgments crossing real queues). Like Hop it
	// is routing state owned by the topology layer; sources and
	// endpoints never touch it.
	Rev bool
}

// Network is the interface protocols (tfrc, tcp, cbr, cross traffic)
// program against: a packet pool, forward-path injection, a reverse
// path, and flow attachment. Package topology provides the
// implementations — the general network graph and the dumbbell as its
// two-node special case. The reverse path is a pure per-flow delay by
// default; a topology may route it through real links and queues
// (SetReverseRoute), in which case feedback and acknowledgments are
// queued, delayed, and dropped like any other traffic.
type Network interface {
	// GetPacket returns a zeroed packet from the freelist.
	GetPacket() *Packet
	// PutPacket returns a packet to the freelist. The network recycles
	// packets itself after delivery and on drops; only sources that
	// abandon a packet before sending need this.
	PutPacket(p *Packet)
	// SendForward injects a forward-path packet at the first hop of its
	// flow's route.
	SendForward(p *Packet)
	// SendReverse carries a packet from the receiver back to the
	// sender: over the flow's routed reverse path (hop by hop through
	// real queues, so the packet may be dropped) when one is declared,
	// otherwise over the uncongested pure-delay reverse path.
	SendReverse(p *Packet)
	// AttachFlow registers a flow's endpoints and path delays: fwdExtra
	// is the one-way delay from the last routed link's egress to the
	// receiver; revDelay is the full uncongested return delay.
	AttachFlow(flow int, sender, receiver Endpoint, fwdExtra, revDelay float64)
}

// Traced is the optional interface a Network implementation exposes
// when an event tracer is attached to its scheduling domain. Protocol
// endpoints query it once at construction and keep the (possibly nil)
// tracer; every obs.Tracer method is nil-safe, so the disabled case
// costs one predictable branch at each rare-event site and nothing on
// the per-packet path. On the sharded engine each endpoint resolves the
// tracer of the shard it is scheduled on, which keeps emission
// single-threaded without synchronization.
type Traced interface {
	// Tracer returns the domain's event tracer, or nil when tracing is
	// off.
	Tracer() *obs.Tracer
}

// TracerOf resolves the event tracer behind a Network, or nil when the
// network does not carry one.
func TracerOf(n Network) *obs.Tracer {
	if t, ok := n.(Traced); ok {
		return t.Tracer()
	}
	return nil
}

// Queue buffers packets in front of a link and decides drops.
type Queue interface {
	// Enqueue offers a packet; it returns false if the packet is
	// dropped.
	Enqueue(p *Packet, now float64) bool
	// Dequeue removes the head packet, or returns nil when empty.
	Dequeue(now float64) *Packet
	// Len returns the number of queued packets.
	Len() int
}

// QueueStats reports the drop counters and occupancy high-water mark a
// queue discipline maintains: full-queue (and RED forced) drops, RED
// probabilistic early drops, and the deepest occupancy seen (tracked
// only by Unbounded; -1 for disciplines that do not track it). It is
// the one type switch the observability layer needs to sample any
// discipline uniformly.
func QueueStats(q Queue) (drops, earlyDrops int64, highWater int) {
	switch t := q.(type) {
	case *DropTail:
		return t.Drops, 0, -1
	case *RED:
		return t.Drops, t.EarlyDrops, -1
	case *Unbounded:
		return 0, 0, t.HighWater
	default:
		return 0, 0, -1
	}
}

// pktRing is a fixed-capacity circular FIFO of packets — the buffer
// behind both queue disciplines, sized once at construction so the
// steady-state enqueue/dequeue path never allocates.
type pktRing struct {
	buf   []*Packet
	head  int
	count int
}

func newPktRing(capacity int) pktRing { return pktRing{buf: make([]*Packet, capacity)} }

func (r *pktRing) push(p *Packet) {
	r.buf[(r.head+r.count)%len(r.buf)] = p
	r.count++
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return p
}

// grow doubles the ring's capacity, preserving FIFO order.
func (r *pktRing) grow() {
	nb := make([]*Packet, 2*len(r.buf))
	for i := 0; i < r.count; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

// DropTail is a FIFO queue with a fixed capacity in packets.
type DropTail struct {
	ring pktRing
	// Drops counts packets rejected at enqueue.
	Drops int64
}

// NewDropTail returns a DropTail queue holding at most capacity packets.
func NewDropTail(capacity int) *DropTail {
	if capacity < 1 {
		panic("netsim: DropTail capacity must be >= 1")
	}
	return &DropTail{ring: newPktRing(capacity)}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet, _ float64) bool {
	if q.ring.count >= len(q.ring.buf) {
		q.Drops++
		return false
	}
	q.ring.push(p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue(_ float64) *Packet {
	if q.ring.count == 0 {
		return nil
	}
	return q.ring.pop()
}

// Len implements Queue.
func (q *DropTail) Len() int { return q.ring.count }

// DefaultUnboundedCap is the hard occupancy cap an Unbounded queue
// enforces when Cap is left zero. A queue this deep means the drain has
// been starved for far longer than any plausible simulation transient
// (an outage upstream, a renegotiated rate near zero), so growing
// further would only trade a diagnosable failure for a silent OOM.
const DefaultUnboundedCap = 1 << 20

// Unbounded is a FIFO queue that never drops: the ring grows on demand.
// It models an ideal infinite-buffer hop — a link that imposes
// serialization and propagation but no loss — such as the default queue
// of a mirrored reverse path. "Never drops" is bounded by Cap: a queue
// that deep is runaway growth, not buffering, and panics with a
// diagnosis instead of eating the heap.
type Unbounded struct {
	ring pktRing
	// HighWater is the maximum occupancy the queue has reached, in
	// packets. Fault runs surface it to show how far a starved hop
	// backed up.
	HighWater int
	// Cap bounds the occupancy; zero applies DefaultUnboundedCap.
	// Exceeding the cap panics (a diagnosed run error through the
	// runner's recover) rather than growing toward OOM.
	Cap int
}

// NewUnbounded returns an empty unbounded FIFO queue.
func NewUnbounded() *Unbounded { return &Unbounded{ring: newPktRing(64)} }

// Enqueue implements Queue; it never rejects a packet, but panics once
// the occupancy exceeds the hard cap.
func (q *Unbounded) Enqueue(p *Packet, _ float64) bool {
	limit := q.Cap
	if limit <= 0 {
		limit = DefaultUnboundedCap
	}
	if q.ring.count >= limit {
		panic(fmt.Sprintf("netsim: unbounded queue exceeded its hard cap (%d packets): the drain has been starved far beyond any transient (link outage or near-zero renegotiated rate upstream?)", limit))
	}
	if q.ring.count == len(q.ring.buf) {
		q.ring.grow()
	}
	q.ring.push(p)
	if q.ring.count > q.HighWater {
		q.HighWater = q.ring.count
	}
	return true
}

// Dequeue implements Queue.
func (q *Unbounded) Dequeue(_ float64) *Packet {
	if q.ring.count == 0 {
		return nil
	}
	return q.ring.pop()
}

// Len implements Queue.
func (q *Unbounded) Len() int { return q.ring.count }

// REDConfig holds the RED active-queue-management parameters, mirroring
// the knobs the paper sets in its ns-2 and lab experiments.
type REDConfig struct {
	// Capacity is the physical buffer length in packets.
	Capacity int
	// MinTh and MaxTh are the average-queue thresholds in packets.
	MinTh, MaxTh float64
	// MaxP is the drop probability as the average reaches MaxTh
	// (the paper's lab runs use 1/10).
	MaxP float64
	// Wq is the EWMA constant of the average queue (paper: 0.002).
	Wq float64
	// Gentle, when false (as in the paper's lab runs), drops every
	// packet once the average exceeds MaxTh.
	Gentle bool
}

// Validate reports an error for out-of-range RED parameters.
func (c REDConfig) Validate() error {
	if c.Capacity < 1 || c.MinTh <= 0 || c.MaxTh <= c.MinTh ||
		c.MaxP <= 0 || c.MaxP > 1 || c.Wq <= 0 || c.Wq > 1 {
		return fmt.Errorf("netsim: invalid RED config %+v", c)
	}
	return nil
}

// PaperRED returns the RED configuration used in the paper's ns-2 runs,
// scaled from a bandwidth-delay product expressed in packets: buffer
// 5/2·bdp, min threshold 1/4·bdp, max threshold 5/4·bdp, wq 0.002,
// maxP 0.1, non-gentle.
func PaperRED(bdpPackets float64) REDConfig {
	if bdpPackets < 4 {
		bdpPackets = 4
	}
	return REDConfig{
		Capacity: int(2.5 * bdpPackets),
		MinTh:    0.25 * bdpPackets,
		MaxTh:    1.25 * bdpPackets,
		MaxP:     0.1,
		Wq:       0.002,
		Gentle:   false,
	}
}

// RED is the classic random-early-detection queue (non-gentle by
// default), with the standard EWMA average including the idle-time
// correction.
type RED struct {
	cfg      REDConfig
	ring     pktRing
	avg      float64
	count    int // packets since last drop while in [minth, maxth)
	idleAt   float64
	idle     bool
	meanPkt  float64 // running mean packet transmission estimate
	linkRate float64 // bytes/sec, for idle correction
	random   *rng.RNG
	// Drops counts packets rejected at enqueue (early + forced).
	Drops int64
	// EarlyDrops counts probabilistic (unforced) drops.
	EarlyDrops int64
}

// NewRED returns a RED queue. linkRate (bytes/second) calibrates the
// idle-time averaging correction; random drives the drop lottery.
func NewRED(cfg REDConfig, linkRate float64, random *rng.RNG) *RED {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if linkRate <= 0 {
		panic("netsim: non-positive link rate for RED")
	}
	if random == nil {
		panic("netsim: RED needs a random source")
	}
	return &RED{
		cfg: cfg, ring: newPktRing(cfg.Capacity),
		linkRate: linkRate, random: random, idle: true, meanPkt: 1000,
	}
}

// Avg returns the current average queue estimate in packets.
func (q *RED) Avg() float64 { return q.avg }

// Enqueue implements Queue.
func (q *RED) Enqueue(p *Packet, now float64) bool {
	// Update the average. After an idle period the average decays as if
	// m small packets had been dequeued (RFC 2309-era RED).
	if q.idle {
		q.meanPkt = 0.9*q.meanPkt + 0.1*float64(p.Size)
		m := (now - q.idleAt) * q.linkRate / q.meanPkt
		if m > 0 {
			decay := 1.0
			for i := 0; i < int(m) && i < 1000; i++ {
				decay *= 1 - q.cfg.Wq
			}
			q.avg *= decay
		}
		q.idle = false
	}
	q.avg = (1-q.cfg.Wq)*q.avg + q.cfg.Wq*float64(q.ring.count)

	drop := false
	forced := false
	switch {
	case q.ring.count >= q.cfg.Capacity:
		drop, forced = true, true
	case q.avg < q.cfg.MinTh:
		// accept
	case q.avg >= q.cfg.MaxTh:
		if q.cfg.Gentle {
			// Linear ramp from MaxP to 1 between maxth and 2*maxth.
			pb := q.cfg.MaxP + (q.avg-q.cfg.MaxTh)/q.cfg.MaxTh*(1-q.cfg.MaxP)
			if pb >= 1 || q.random.Float64() < pb {
				drop = true
			}
		} else {
			drop, forced = true, true
		}
	default:
		pb := q.cfg.MaxP * (q.avg - q.cfg.MinTh) / (q.cfg.MaxTh - q.cfg.MinTh)
		// Uniformize inter-drop spacing with the count correction.
		denom := 1 - float64(q.count)*pb
		if denom <= 0 {
			drop = true
		} else if q.random.Float64() < pb/denom {
			drop = true
		}
	}
	if drop {
		q.Drops++
		if !forced {
			q.EarlyDrops++
		}
		q.count = 0
		return false
	}
	if q.avg >= q.cfg.MinTh {
		q.count++
	} else {
		q.count = 0
	}
	q.ring.push(p)
	return true
}

// Dequeue implements Queue.
func (q *RED) Dequeue(now float64) *Packet {
	if q.ring.count == 0 {
		return nil
	}
	p := q.ring.pop()
	if q.ring.count == 0 {
		q.idle = true
		q.idleAt = now
	}
	return p
}

// Len implements Queue.
func (q *RED) Len() int { return q.ring.count }

// Link transmits packets from its queue at a fixed rate and delivers
// them after a propagation delay. Deliver must be set before any Send.
//
// A packet costs the link one scheduler event: its delivery, scheduled
// when its serialization starts, at the departure time plus the delay
// and under the departure time as its causal key (des.AtOrigin) — the
// identity the delivery would have if the end of serialization were an
// event of its own. The end of serialization is not one. The link keeps
// the departure time and causal key of the packet in service as state
// and settles it whenever anything touches the link: every departure
// the scheduler has passed (des.Scheduler.Passed) counts the packet as
// forwarded and starts the next one at that departure instant. Send,
// FlushQueue, SetRate, every delivery and every reader of the link's
// state settle first, so each observes the link exactly as the
// two-event pipeline would have left it. The delivery of the packet in
// service settles the link before the next packet's delivery is due,
// so the link never falls behind. A rate change applies to the packets
// that start after it: change Rate mid-run through SetRate, which
// settles first.
//
// Packets wait for delivery in a circular buffer beside their timers,
// and the one delivery callback is bound at construction, so the
// steady-state forwarding path performs no per-packet allocations.
type Link struct {
	sched *des.Scheduler
	// Rate is the transmission rate in bytes/second. Change it during a
	// run only through SetRate.
	Rate float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64
	queue Queue
	// busy is set while a packet is in service; txAt, txKey and txSize
	// are that packet's departure time, the causal key of its departure
	// (the instant its serialization started) and its size.
	busy        bool
	txAt, txKey float64
	txSize      int
	// Deliver receives each packet after transmission + propagation.
	Deliver func(*Packet)
	// Release, when set, receives packets rejected by the queue so
	// their memory can be recycled (the dumbbell points it at its
	// packet freelist). Unset, dropped packets are left to the GC.
	Release func(*Packet)
	// Fault, when set, inspects every packet offered to the link before
	// the queue sees it; returning true drops the packet (counted in
	// FaultDrops, recycled through Release). The fault-injection layer
	// (internal/fault) installs it to model link outages and bursty loss
	// processes; nil — the default — costs one branch per Send.
	Fault func(*Packet) bool
	// FaultDrops counts packets dropped by the Fault hook, including
	// queued packets discarded by FlushQueue.
	FaultDrops int64
	// Handoff, when set, replaces the propagation stage: when its
	// serialization starts, the packet is handed off instead of entering
	// the propagation pipeline (Departure reports when it leaves), and no
	// delivery event is scheduled on this link's scheduler. A
	// space-parallel executor sets it on links whose destination lives in
	// another shard — the receiving shard schedules the arrival (at
	// departure + Delay) itself, so the propagation delay becomes the
	// conservative lookahead across the cut. Such a link has no event of
	// its own to settle it, so the executor settles it (Settle) before
	// each window barrier. Handed-off packets count as Forwarded once
	// they depart, but never as InFlight.
	Handoff func(*Packet)

	forwarded, bytesForwarded int64

	// prop pairs each packet awaiting delivery — the one in service
	// included — with its delivery timer, so a checkpoint can translate
	// the pipeline into (packet, timer) records.
	prop              []propEntry
	propHead, propLen int
	deliverFn         des.Event
}

// propEntry is one packet in the propagation pipeline with the timer
// that will deliver it.
type propEntry struct {
	p  *Packet
	tm des.Timer
}

// NewLink builds a link with the given rate (bytes/second), propagation
// delay and queue.
func NewLink(sched *des.Scheduler, rate, delay float64, queue Queue) *Link {
	if sched == nil || queue == nil {
		panic("netsim: link needs a scheduler and a queue")
	}
	if rate <= 0 || delay < 0 {
		panic("netsim: invalid link rate/delay")
	}
	l := &Link{sched: sched, Rate: rate, Delay: delay, queue: queue}
	l.deliverFn = l.deliverOldest
	return l
}

// Queue settles the link and exposes its queue (for inspection in
// tests/experiments).
func (l *Link) Queue() Queue {
	l.Settle()
	return l.queue
}

// Forwarded settles the link and returns the number of packets fully
// transmitted.
func (l *Link) Forwarded() int64 {
	l.Settle()
	return l.forwarded
}

// BytesForwarded settles the link and returns the bytes fully
// transmitted.
func (l *Link) BytesForwarded() int64 {
	l.Settle()
	return l.bytesForwarded
}

// Departure returns the departure time of the packet in service: when
// its serialization ends. A Handoff reads it to stamp the packet's
// arrival across the cut.
func (l *Link) Departure() float64 { return l.txAt }

// InFlight returns the number of packets currently held by the link:
// queued, being serialized, or propagating. Together with pending
// deliveries this is the denominator of the freelist leak invariant.
// It reads the link as it stands: settling moves a packet from the queue
// into the pipeline, which leaves the count unchanged, except on a cut
// link (Handoff), which its executor settles before every barrier.
func (l *Link) InFlight() int {
	return l.queue.Len() + l.propLen
}

// Accepted settles the link and returns the number of packets it has
// taken in so far: forwarded plus currently queued or serializing.
// Unlike InFlight it excludes the propagation stage, whose accounting
// moves to the destination shard when the link is cut (Handoff) — so
// the value is identical on the serial and sharded engines at any
// barrier-aligned instant, which keeps offered-load ratios byte-stable
// across executor modes.
func (l *Link) Accepted() int64 {
	l.Settle()
	n := l.forwarded + int64(l.queue.Len())
	if l.busy {
		n++
	}
	return n
}

// Send offers a packet to the link. Dropped packets disappear silently
// (the queue records them; Release recycles them when set).
func (l *Link) Send(p *Packet) {
	if l.Deliver == nil {
		panic("netsim: link has no Deliver sink")
	}
	if l.Fault != nil && l.Fault(p) {
		l.FaultDrops++
		if l.Release != nil {
			l.Release(p)
		}
		return
	}
	l.Settle()
	now := l.sched.Now()
	if !l.queue.Enqueue(p, now) {
		if l.Release != nil {
			l.Release(p)
		}
		return
	}
	if !l.busy {
		l.transmitNext(now)
	}
}

// SetRate settles the link and changes its transmission rate. The
// packet in service keeps its departure time; the packets that start
// after the change serialize at the new rate.
func (l *Link) SetRate(rate float64) {
	if rate <= 0 {
		panic("netsim: invalid link rate")
	}
	l.Settle()
	l.Rate = rate
}

// FlushQueue discards every queued packet through the Release sink and
// returns the count (also added to FaultDrops). The packet being
// serialized and those already propagating are untouched — their bits
// are on the wire and still arrive. The fault layer calls this when a
// link goes down under the Flush policy; the freelist ledger stays
// balanced because Release recycles each packet at the drop point,
// exactly like a queue rejection.
func (l *Link) FlushQueue() int {
	l.Settle()
	n := 0
	for {
		p := l.queue.Dequeue(l.sched.Now())
		if p == nil {
			break
		}
		if l.Release != nil {
			l.Release(p)
		}
		n++
	}
	l.FaultDrops += int64(n)
	return n
}

// Settle brings the link up to the scheduler's clock: it completes
// every departure the scheduler has passed, in order, each counting its
// packet as forwarded and starting the next one at the departure
// instant. The link's own methods settle before they act; an executor
// calls it on a link that has no delivery event of its own (Handoff).
func (l *Link) Settle() {
	for l.busy && l.sched.Passed(l.txAt, l.txKey) {
		l.forwarded++
		l.bytesForwarded += int64(l.txSize)
		l.transmitNext(l.txAt)
	}
}

// transmitNext starts serializing the head of the queue at time t (the
// clock, or a departure instant settle has reached) and schedules its
// delivery, or hands it off; an empty queue leaves the link idle.
func (l *Link) transmitNext(t float64) {
	p := l.queue.Dequeue(t)
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.txAt, l.txKey, l.txSize = t+float64(p.Size)/l.Rate, t, p.Size
	if l.Handoff != nil {
		l.Handoff(p)
		return
	}
	l.propPush(p, l.sched.AtOrigin(l.txAt+l.Delay, l.txAt, l.deliverFn))
}

// deliverOldest hands the head of the propagation pipeline to the sink,
// after settling the link: the packet has departed, and the next one
// starts at its departure. Departures are strictly ordered in time and
// propagation delay is constant, so deliveries pop in FIFO order.
func (l *Link) deliverOldest() {
	l.Settle()
	l.Deliver(l.propPop())
}

func (l *Link) propPush(p *Packet, tm des.Timer) {
	if l.propLen == len(l.prop) {
		grown := make([]propEntry, max(8, 2*len(l.prop)))
		for i := 0; i < l.propLen; i++ {
			grown[i] = l.prop[(l.propHead+i)%len(l.prop)]
		}
		l.prop = grown
		l.propHead = 0
	}
	l.prop[(l.propHead+l.propLen)%len(l.prop)] = propEntry{p, tm}
	l.propLen++
}

func (l *Link) propPop() *Packet {
	p := l.prop[l.propHead].p
	l.prop[l.propHead] = propEntry{}
	l.propHead = (l.propHead + 1) % len(l.prop)
	l.propLen--
	return p
}

// Endpoint consumes delivered packets.
type Endpoint interface {
	// Receive handles one packet addressed to this endpoint. The packet
	// is recycled when Receive returns: copy fields out, never retain p.
	Receive(p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet)

// Receive implements Endpoint.
func (f EndpointFunc) Receive(p *Packet) { f(p) }

// LossEventCounter groups packet losses into loss events the TFRC way:
// losses within one RTT of the first loss of an event belong to that
// event. It also records the loss-event intervals in packets.
type LossEventCounter struct {
	rtt          func() float64
	eventOpen    bool
	eventStart   float64
	eventSeq     int64
	lastEventSeq int64
	// Events is the number of loss events registered.
	Events int64
	// Intervals are the closed loss-event intervals in packets.
	Intervals []float64
}

// NewLossEventCounter builds a counter; rtt supplies the current
// round-trip-time estimate used for grouping.
func NewLossEventCounter(rtt func() float64) *LossEventCounter {
	if rtt == nil {
		panic("netsim: loss event counter needs an rtt source")
	}
	return &LossEventCounter{rtt: rtt, lastEventSeq: -1}
}

// Reset returns the counter to its just-constructed state, keeping the
// rtt source and the Intervals buffer's capacity, so pooled receivers
// (the churn engine's recycled endpoints) renew without allocating.
func (c *LossEventCounter) Reset() {
	c.eventOpen = false
	c.eventStart = 0
	c.eventSeq = 0
	c.lastEventSeq = -1
	c.Events = 0
	c.Intervals = c.Intervals[:0]
}

// OnLoss reports a packet loss detected at the given time for the given
// sequence number. It returns true if the loss opened a new loss event.
func (c *LossEventCounter) OnLoss(now float64, seq int64) bool {
	if c.eventOpen && now < c.eventStart+c.rtt() {
		return false
	}
	c.eventOpen = true
	c.eventStart = now
	c.Events++
	if c.lastEventSeq >= 0 && seq > c.lastEventSeq {
		c.Intervals = append(c.Intervals, float64(seq-c.lastEventSeq))
	}
	c.lastEventSeq = seq
	c.eventSeq = seq
	return true
}

// OpenInterval returns the packets elapsed in the currently open
// interval given the highest sequence seen.
func (c *LossEventCounter) OpenInterval(highestSeq int64) float64 {
	if c.lastEventSeq < 0 || highestSeq <= c.lastEventSeq {
		return 0
	}
	return float64(highestSeq - c.lastEventSeq)
}
