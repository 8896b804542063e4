// Package tcp implements a NewReno-style TCP sender and receiver over
// any netsim.Network (the topology dumbbell or a multi-hop graph):
// slow start, AIMD congestion avoidance with
// delayed ACKs (b = 2), fast retransmit/recovery with NewReno partial
// acks, and a retransmission timer with Jacobson/Karels estimation and
// exponential backoff.
//
// The model is packet-based (congestion window counted in segments), the
// standard abstraction for long-lived bulk transfers in simulation — it
// reproduces the window dynamics that the PFTK throughput formula
// models, which is what the paper's experiments exercise.
package tcp

import (
	"math"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config holds the tunable constants of the TCP model.
type Config struct {
	// SegSize is the segment size in bytes (data packets).
	SegSize int
	// AckSize is the ACK size in bytes.
	AckSize int
	// AckEvery is the delayed-ACK factor b (2 acknowledges every other
	// segment, the practical default the formulas assume).
	AckEvery int
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd float64
	// InitialSsthresh is the initial slow-start threshold in segments.
	InitialSsthresh float64
	// MinRTO is the lower bound on the retransmission timeout, seconds.
	MinRTO float64
	// MaxBackoff bounds the RTO exponential backoff doublings.
	MaxBackoff int
	// TotalSegments, when positive, bounds the transfer: the sender goes
	// done once every segment below this count is cumulatively
	// acknowledged, cancelling its retransmission timer and ignoring
	// late ACKs. Zero (the default) keeps the persistent bulk sender.
	TotalSegments int64
}

// DefaultConfig returns the configuration used across the experiments:
// 1000-byte segments, 40-byte ACKs, b = 2, RFC-like timer floors.
func DefaultConfig() Config {
	return Config{
		SegSize:         1000,
		AckSize:         40,
		AckEvery:        2,
		InitialCwnd:     2,
		InitialSsthresh: 64,
		MinRTO:          0.2,
		MaxBackoff:      6,
	}
}

func (c Config) validate() {
	if c.SegSize <= 0 || c.AckSize <= 0 || c.AckEvery < 1 ||
		c.InitialCwnd < 1 || c.InitialSsthresh < 2 ||
		c.MinRTO <= 0 || c.MaxBackoff < 0 || c.TotalSegments < 0 {
		panic("tcp: invalid config")
	}
}

// Stats summarizes a measurement window of a sender.
type Stats struct {
	// Duration is the measurement window in seconds.
	Duration float64
	// PacketsSent counts data segments sent (including retransmits).
	PacketsSent int64
	// LossEvents counts loss events (losses within one RTT grouped).
	LossEvents int64
	// LossEventRate is LossEvents/PacketsSent (the per-packet event
	// rate p' of the paper's comparisons), 0 if nothing was sent.
	LossEventRate float64
	// LossIntervals are the closed loss-event intervals in packets.
	LossIntervals []float64
	// MeanRTT is the average of the RTT samples in the window, seconds.
	MeanRTT float64
	// Throughput is the send rate in packets/second.
	Throughput float64
	// AcksReceived counts acknowledgment packets that reached the
	// sender in the window. Over a routed congested reverse path this
	// falls short of the ACKs the receiver issued (ack loss), and the
	// survivors arrive compressed behind the reverse bottleneck's
	// queue.
	AcksReceived int64
}

// Sender is a long-lived bulk-transfer TCP source. Create it with its
// receiver (NewFlow, NewFlowOn or NewFlowRaw), then Start.
type Sender struct {
	cfg      Config
	sched    *des.Scheduler
	net      netsim.Network
	flow     int
	receiver *Receiver

	cwnd     float64
	ssthresh float64
	nextSeq  int64
	highAck  int64 // next expected byte^H^Hsegment (cumulative ack)
	dupacks  int
	recover  int64
	inflate  float64

	srtt, rttvar, rto float64
	backoff           int
	rtoTimer          des.Timer
	onTimeoutFn       des.Event // bound once: the RTO re-arm path is per-ACK

	lossEvents *netsim.LossEventCounter
	trace      *obs.Tracer

	// inRec (in fast recovery) sits with the lifecycle flags: packed
	// together, the three keep the sender in the 320-byte size class.
	inRec   bool
	started bool
	done    bool

	// onDone, when set (OnDone), fires once, from inside the ACK event
	// that completes a finite transfer (cfg.TotalSegments > 0).
	onDone func()

	// measurement window
	measStart  float64
	pktsSent   int64
	acksSeen   int64
	acksBase   int64
	eventsBase int64
	rttAcc     stats.Welford
	intervals0 int
}

// newSender builds a TCP sender for the given flow id: it allocates the
// loss counter and the bound timeout callback, then gives the sender its
// fresh state through the same code Renew runs.
func newSender(sched *des.Scheduler, net netsim.Network, flow int, cfg Config) *Sender {
	cfg.validate()
	if sched == nil || net == nil {
		panic("tcp: nil scheduler or network")
	}
	s := &Sender{sched: sched, net: net, trace: netsim.TracerOf(net)}
	s.lossEvents = netsim.NewLossEventCounter(func() float64 {
		if s.srtt > 0 {
			return s.srtt
		}
		return 0.1
	})
	s.onTimeoutFn = s.onTimeout
	s.reset(flow, cfg)
	return s
}

// reset gives the sender its fresh state for flow under cfg. It keeps
// the environment, the receiver, the loss counter's buffer and the bound
// callbacks; every other field restarts at its zero value or at the
// value named here.
func (s *Sender) reset(flow int, cfg Config) {
	s.lossEvents.Reset()
	*s = Sender{
		cfg: cfg, sched: s.sched, net: s.net, flow: flow, receiver: s.receiver,
		cwnd: cfg.InitialCwnd, ssthresh: cfg.InitialSsthresh, rto: 1.0,
		onTimeoutFn: s.onTimeoutFn, lossEvents: s.lossEvents, trace: s.trace, onDone: s.onDone,
	}
}

// Start begins transmission (call after the flow is attached).
func (s *Sender) Start() {
	if s.started {
		panic("tcp: sender already started")
	}
	s.started = true
	s.measStart = s.sched.Now()
	s.maybeSend()
	s.armRTO()
}

// SRTT returns the smoothed round-trip-time estimate in seconds
// (0 before the first sample).
func (s *Sender) SRTT() float64 { return s.srtt }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Flow returns the sender's current flow id.
func (s *Sender) Flow() int { return s.flow }

// ResetStats restarts the measurement window at the current time,
// discarding warmup statistics.
func (s *Sender) ResetStats() {
	s.measStart = s.sched.Now()
	s.pktsSent = 0
	s.acksBase = s.acksSeen
	s.eventsBase = s.lossEvents.Events
	s.rttAcc = stats.Welford{}
	s.intervals0 = len(s.lossEvents.Intervals)
}

// Stats returns the measurement-window summary at the current time.
func (s *Sender) Stats() Stats {
	dur := s.sched.Now() - s.measStart
	st := Stats{
		Duration:     dur,
		PacketsSent:  s.pktsSent,
		LossEvents:   s.lossEvents.Events - s.eventsBase,
		MeanRTT:      s.rttAcc.Mean(),
		AcksReceived: s.acksSeen - s.acksBase,
	}
	st.LossIntervals = append(st.LossIntervals, s.lossEvents.Intervals[s.intervals0:]...)
	if s.pktsSent > 0 {
		st.LossEventRate = float64(st.LossEvents) / float64(s.pktsSent)
	}
	if dur > 0 {
		st.Throughput = float64(s.pktsSent) / dur
	}
	return st
}

func (s *Sender) inflight() float64 { return float64(s.nextSeq - s.highAck) }

func (s *Sender) window() float64 { return s.cwnd + s.inflate }

func (s *Sender) maybeSend() {
	for s.inflight() < s.window() {
		if s.cfg.TotalSegments > 0 && s.nextSeq >= s.cfg.TotalSegments {
			return // finite transfer: nothing new left to send
		}
		s.sendSeq(s.nextSeq)
		s.nextSeq++
	}
}

// OnDone registers a callback fired once, when a finite transfer
// (cfg.TotalSegments > 0) is fully acknowledged. Set before Start.
func (s *Sender) OnDone(fn func()) { s.onDone = fn }

// Done reports whether a finite transfer is fully acknowledged.
func (s *Sender) Done() bool { return s.done }

// Quiesced reports whether the transfer is over for the whole pair: the
// sender is done and holds no live timer (the receiver never holds one),
// so the pair will never schedule another event. The churn engine
// requires this before recycling the pair.
func (s *Sender) Quiesced() bool { return s.done && !s.rtoTimer.Active() }

func (s *Sender) sendSeq(seq int64) {
	s.pktsSent++
	p := s.net.GetPacket()
	p.Flow = s.flow
	p.Seq = seq
	p.Size = s.cfg.SegSize
	p.SentAt = s.sched.Now()
	p.Kind = netsim.Data
	s.net.SendForward(p)
}

// Receive implements netsim.Endpoint for the returning ACK stream.
// Lost ACKs need no special handling: a later cumulative ACK covers
// them, and a fully severed reverse path surfaces as an RTO. Ack
// compression — back-to-back ACK arrivals released by a congested
// reverse queue — makes cwnd growth and send bursts lumpy, which is
// exactly the behavior the routed reverse path experiments measure.
func (s *Sender) Receive(p *netsim.Packet) {
	if p.Kind != netsim.Ack {
		return
	}
	s.acksSeen++
	if s.done {
		// Late or duplicate ACK for a completed transfer: count it but
		// change nothing, so stray reverse-path stragglers can't trigger
		// a spurious fast retransmit on a finished flow.
		return
	}
	now := s.sched.Now()
	switch {
	case p.AckSeq > s.highAck:
		acked := float64(p.AckSeq - s.highAck)
		s.highAck = p.AckSeq
		s.dupacks = 0
		s.backoff = 0
		if p.Echo > 0 {
			s.sampleRTT(now - p.Echo)
		}
		if s.inRec {
			if p.AckSeq >= s.recover {
				// Full recovery: deflate to ssthresh.
				s.inRec = false
				s.inflate = 0
				s.cwnd = s.ssthresh
			} else {
				// NewReno partial ack: retransmit the next hole and
				// stay in recovery.
				s.sendSeq(s.highAck)
				s.inflate = math.Max(0, s.inflate-acked)
			}
		} else if s.cwnd < s.ssthresh {
			s.cwnd += acked // slow start
		} else {
			// Congestion avoidance: 1/cwnd per ACK received. With
			// delayed ACKs (b = 2) this yields the 1/b segments per RTT
			// growth the PFTK formula models.
			s.cwnd += 1 / s.cwnd
		}
		if s.cfg.TotalSegments > 0 && s.highAck >= s.cfg.TotalSegments {
			// Every segment is cumulatively acknowledged: the transfer
			// is complete and no timer needs to stay armed.
			s.done = true
			s.rtoTimer.Cancel()
			if s.onDone != nil {
				s.onDone()
			}
			return
		}
		s.armRTO()
		s.maybeSend()
	case p.AckSeq == s.highAck:
		s.dupacks++
		if !s.inRec && s.dupacks == 3 {
			// Fast retransmit: one loss event.
			s.lossEvents.OnLoss(now, s.highAck)
			s.ssthresh = math.Max(s.cwnd/2, 2)
			s.cwnd = s.ssthresh
			s.inflate = 3
			s.recover = s.nextSeq
			s.inRec = true
			s.sendSeq(s.highAck)
			s.armRTO()
		} else if s.inRec {
			// Window inflation keeps the ACK clock running.
			s.inflate++
			s.maybeSend()
		}
	}
}

func (s *Sender) sampleRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	s.rttAcc.Add(rtt)
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		s.rttvar = 0.75*s.rttvar + 0.25*math.Abs(s.srtt-rtt)
		s.srtt = 0.875*s.srtt + 0.125*rtt
	}
	s.rto = math.Max(s.cfg.MinRTO, s.srtt+4*s.rttvar)
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	d := s.rto * math.Pow(2, float64(s.backoff))
	s.rtoTimer = s.sched.After(d, s.onTimeoutFn)
}

func (s *Sender) onTimeout() {
	now := s.sched.Now()
	s.trace.Emit(now, obs.EvTCPTimeout, int32(s.flow), -1, s.rto*math.Pow(2, float64(s.backoff)))
	s.lossEvents.OnLoss(now, s.highAck)
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = 1
	s.inRec = false
	s.inflate = 0
	s.dupacks = 0
	if s.backoff < s.cfg.MaxBackoff {
		s.backoff++
	}
	// Go-back-N: resume from the first unacknowledged segment.
	s.nextSeq = s.highAck
	s.maybeSend()
	s.armRTO()
}

// Receiver is the delayed-ACK TCP receiver: it acknowledges every
// AckEvery-th in-order segment immediately on out-of-order arrivals
// (duplicate ACKs), echoing the arriving segment's timestamp.
type Receiver struct {
	cfg      Config
	sched    *des.Scheduler
	net      netsim.Network
	flow     int
	expected int64
	ooo      map[int64]bool
	unacked  int
	// PacketsReceived counts data segments delivered (with duplicates).
	PacketsReceived int64
}

// newReceiver builds the receiving endpoint for a flow: it allocates the
// out-of-order set, then gives the receiver its fresh state.
func newReceiver(sched *des.Scheduler, net netsim.Network, flow int, cfg Config) *Receiver {
	cfg.validate()
	if sched == nil || net == nil {
		panic("tcp: nil scheduler or network")
	}
	r := &Receiver{sched: sched, net: net, ooo: map[int64]bool{}}
	r.reset(flow, cfg)
	return r
}

// reset gives the receiver its fresh state for flow under cfg, keeping
// what construction allocated, as Sender.reset does.
func (r *Receiver) reset(flow int, cfg Config) {
	clear(r.ooo)
	*r = Receiver{cfg: cfg, sched: r.sched, net: r.net, flow: flow, ooo: r.ooo}
}

// Receive implements netsim.Endpoint for the forward data stream.
func (r *Receiver) Receive(p *netsim.Packet) {
	if p.Kind != netsim.Data {
		return
	}
	r.PacketsReceived++
	dup := false
	switch {
	case p.Seq == r.expected:
		r.expected++
		for r.ooo[r.expected] {
			delete(r.ooo, r.expected)
			r.expected++
		}
	case p.Seq > r.expected:
		r.ooo[p.Seq] = true
		dup = true // out-of-order: immediate duplicate ACK
	default:
		dup = true // already-received segment (retransmit overlap)
	}
	r.unacked++
	if dup || r.unacked >= r.cfg.AckEvery {
		r.unacked = 0
		ack := r.net.GetPacket()
		ack.Flow = r.flow
		ack.Kind = netsim.Ack
		ack.Size = r.cfg.AckSize
		ack.AckSeq = r.expected
		ack.Echo = p.SentAt
		r.net.SendReverse(ack)
	}
}

// NewFlow wires a TCP sender/receiver pair onto the dumbbell with the
// given one-way extra forward delay and reverse-path delay, and returns
// both endpoints. Call sender.Start to begin.
func NewFlow(sched *des.Scheduler, net netsim.Network, flow int, cfg Config, fwdExtra, revDelay float64) (*Sender, *Receiver) {
	return NewFlowOn(sched, net, sched, net, flow, cfg, fwdExtra, revDelay)
}

// NewFlowOn is NewFlow with the two endpoints placed on separate
// scheduler/network pairs, for executors that split one simulation
// across several event loops (internal/shard): the sender runs its
// timers on sndSched and sends through sndNet, the receiver on rcvSched
// through rcvNet. The flow is attached via the sender's network. With
// both pairs identical it is exactly NewFlow.
func NewFlowOn(sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network, flow int, cfg Config, fwdExtra, revDelay float64) (*Sender, *Receiver) {
	snd, rcv := NewFlowRaw(sndSched, sndNet, rcvSched, rcvNet, flow, cfg)
	sndNet.AttachFlow(flow, snd, rcv, fwdExtra, revDelay)
	return snd, rcv
}

// NewFlowRaw builds the endpoint pair without attaching the flow to the
// network, for callers that attach with explicit hop slices through
// their executor (the churn engine); everything else wants NewFlowOn.
// The sender holds its receiver, so it can speak for the pair.
func NewFlowRaw(sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network, flow int, cfg Config) (*Sender, *Receiver) {
	snd := newSender(sndSched, sndNet, flow, cfg)
	snd.receiver = newReceiver(rcvSched, rcvNet, flow, cfg)
	return snd, snd.receiver
}

// Renew gives the sender and its receiver, in place, the state
// NewFlowRaw builds for flow under cfg, reusing the loss-counter buffer
// and the out-of-order set so churn workloads recycle endpoints without
// allocating. The pair must hold no live timer: it never started, or it
// has quiesced. Renew does not attach the flow: the caller attaches it
// with its hop slices, as the churn engine does through its host.
func (s *Sender) Renew(flow int, cfg Config) {
	cfg.validate()
	if s.rtoTimer.Active() {
		panic("tcp: Renew on a pair with a live timer")
	}
	s.reset(flow, cfg)
	s.receiver.reset(flow, cfg)
}

// Endpoints returns the pair's two ends, the sender and its receiver,
// for callers that attach the flow themselves.
func (s *Sender) Endpoints() (sender, receiver netsim.Endpoint) { return s, s.receiver }
