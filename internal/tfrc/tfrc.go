// Package tfrc implements a TFRC (TCP-Friendly Rate Control, RFC 3448
// style) sender and receiver over any netsim.Network — the topology
// dumbbell or a multi-hop graph — the protocol whose long-run behavior
// the paper analyzes as the "comprehensive control".
//
// The receiver detects losses from sequence gaps (the simulator's FIFO
// paths never reorder), groups losses within one round-trip time into
// loss events, maintains the loss-interval history with the TFRC
// weights, and reports the loss-event rate p and the receive rate once
// per round-trip time. The sender smooths the RTT with an EWMA
// (q = 0.9), evaluates the configured throughput formula at (p, rtt) and
// paces packets at X = min(f(p, rtt), 2·X_recv), with slow start before
// the first loss event and a no-feedback fallback timer.
//
// The comprehensive-control element — including the still-open loss
// interval in the estimate when that raises it (eq. 4 of the paper) —
// can be disabled, as the paper does in its lab experiments.
package tfrc

import (
	"math"

	"repro/internal/des"
	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// FormulaKind selects the loss-throughput formula the sender uses.
type FormulaKind int

// Formula choices (paper §II-C).
const (
	// PFTKStandard is eq. 6 — the paper's lab/Internet setting.
	PFTKStandard FormulaKind = iota
	// PFTKSimplified is eq. 7 — the RFC 3448 recommendation.
	PFTKSimplified
	// SQRT is eq. 5.
	SQRT
)

// rateOf evaluates the selected formula at loss probability lossP
// without boxing the concrete formula value into the Formula
// interface. updateRate runs on every feedback packet, so the
// conversion build performs would be a per-event heap allocation;
// build stays for the cold paths that genuinely need the interface
// (formula inversion at receiver priming).
func (k FormulaKind) rateOf(p formula.Params, lossP float64) float64 {
	switch k {
	case PFTKStandard:
		return formula.NewPFTKStandard(p).Rate(lossP)
	case PFTKSimplified:
		return formula.NewPFTKSimplified(p).Rate(lossP)
	case SQRT:
		return formula.NewSQRT(p).Rate(lossP)
	default:
		panic("tfrc: unknown formula kind")
	}
}

func (k FormulaKind) build(p formula.Params) formula.Formula {
	switch k {
	case PFTKStandard:
		return formula.NewPFTKStandard(p)
	case PFTKSimplified:
		return formula.NewPFTKSimplified(p)
	case SQRT:
		return formula.NewSQRT(p)
	default:
		panic("tfrc: unknown formula kind")
	}
}

// Config holds the protocol constants.
type Config struct {
	// SegSize is the data packet size in bytes.
	SegSize int
	// FeedbackSize is the feedback packet size in bytes.
	FeedbackSize int
	// Window is the loss-interval estimator window L (TFRC default 8).
	Window int
	// Formula selects the loss-throughput function.
	Formula FormulaKind
	// Comprehensive enables the in-interval estimator increase (the
	// comprehensive control); the paper disables it in lab runs.
	Comprehensive bool
	// HistoryDiscounting additionally enables RFC 3448 §5.5 history
	// discounting of the closed intervals once the open interval grows
	// past twice the average. It only takes effect with Comprehensive.
	// The paper's analysis does not model discounting, so it defaults
	// to off; enable it to study the full RFC behavior.
	HistoryDiscounting bool
	// RTTq is the RTT EWMA constant (RFC 3448 q = 0.9).
	RTTq float64
	// InitialRate is the pre-feedback send rate in bytes/second.
	InitialRate float64
	// MinInterval floors the feedback interval in seconds.
	MinInterval float64
	// SendJitter randomizes each inter-packet gap uniformly in
	// [1-SendJitter, 1+SendJitter] times the nominal spacing. A small
	// value (ns-2 uses a comparable "overhead" randomization) breaks the
	// deterministic phase-locking between a paced source and a DropTail
	// queue, which otherwise skews the drop lottery. 0 disables.
	SendJitter float64
	// Seed drives the pacing jitter.
	Seed uint64
	// TotalPackets, when positive, bounds the transfer: after sending
	// this many data packets the sender goes done — it stops pacing,
	// cancels its no-feedback timer and ignores late feedback. Zero (the
	// default) keeps the persistent, unbounded sender. Session-churn
	// workloads (internal/arrivals) give each flow a finite volume.
	TotalPackets int64
	// IdleStop, when positive, lets the receiver's feedback clock die
	// out: after this many consecutive feedback intervals with no data
	// received the timer stops rescheduling (a fresh data packet re-arms
	// it). Zero (the default) keeps the RFC behavior of a feedback timer
	// that cycles forever — fine for persistent flows, but a departed
	// session would leak an immortal timer per flow. Purely local
	// receiver logic, so every executor reaches the stop identically.
	IdleStop int
}

// DefaultConfig returns the paper's protocol settings: 1000-byte
// packets, L = 8, PFTK-standard, comprehensive control on.
func DefaultConfig() Config {
	return Config{
		SegSize:       1000,
		FeedbackSize:  40,
		Window:        8,
		Formula:       PFTKStandard,
		Comprehensive: true,
		RTTq:          0.9,
		InitialRate:   2000,
		MinInterval:   0.01,
		SendJitter:    0.1,
		Seed:          1,
	}
}

func (c Config) validate() {
	if c.SegSize <= 0 || c.FeedbackSize <= 0 || c.Window < 1 ||
		c.RTTq < 0 || c.RTTq >= 1 || c.InitialRate <= 0 || c.MinInterval <= 0 ||
		c.SendJitter < 0 || c.SendJitter >= 1 ||
		c.TotalPackets < 0 || c.IdleStop < 0 {
		panic("tfrc: invalid config")
	}
}

// Stats summarizes a sender measurement window.
type Stats struct {
	// Duration is the window length in seconds.
	Duration float64
	// PacketsSent counts data packets sent in the window.
	PacketsSent int64
	// Throughput is the send rate in packets/second.
	Throughput float64
	// MeanRTT averages the sender's RTT samples in the window.
	MeanRTT float64
	// LossEvents counts receiver-detected loss events in the window.
	LossEvents int64
	// LossEventRate is LossEvents/PacketsSent (0 if nothing sent).
	LossEventRate float64
	// LossIntervals are the closed loss-event intervals (packets).
	LossIntervals []float64
	// PEstimate is the receiver's current loss-event rate estimate.
	PEstimate float64
	// FeedbackReceived counts receiver reports that reached the sender
	// in the window. Over a routed congested reverse path this falls
	// short of the reports the receiver issued — the rest were dropped.
	FeedbackReceived int64
	// NoFeedbackHalvings counts no-feedback timer expirations in the
	// window: each one halved the send rate because a full no-feedback
	// interval passed without a report (RFC 3448 §4.4).
	NoFeedbackHalvings int64
	// MinRate is the lowest allowed send rate (bytes/second) the control
	// loop reached in the window — the depth of the backoff under an
	// outage or feedback starvation, invisible in window-mean throughput.
	MinRate float64
}

// Sender is the TFRC data source.
type Sender struct {
	cfg   Config
	sched *des.Scheduler
	net   netsim.Network
	flow  int

	rate      float64 // bytes/second
	rtt       *estimator.RTT
	nextSeq   int64
	slowStart bool
	random    *rng.RNG

	sendTimer  des.Timer
	nfTimer    des.Timer
	receiver   *Receiver
	started    bool
	done       bool
	lastRecvRt float64
	lastP      float64
	trace      *obs.Tracer

	// onDone, when set (OnDone), fires once, from inside the event that
	// sends the transfer's last packet. The churn engine hooks its
	// per-class completion accounting here.
	onDone func()

	// Bound callbacks, allocated once so the per-packet and per-timer
	// scheduling path stays allocation-free.
	sendNextFn     des.Event
	onNoFeedbackFn des.Event

	measStart float64
	pktsSent  int64
	minRate   float64
	rttAcc    stats.Welford

	fbSeen     int64
	nfHalvings int64
	fbBase     int64
	nfBase     int64
}

// Receiver is the TFRC feedback source.
type Receiver struct {
	cfg   Config
	sched *des.Scheduler
	net   netsim.Network
	flow  int

	expected   int64
	highest    int64
	events     *netsim.LossEventCounter
	est        *estimator.LossIntervalEstimator
	sawLoss    bool
	senderRTT  float64
	lastSentAt float64
	lastRecvAt float64

	bytesSinceFB float64
	lastFBAt     float64
	fbTimer      des.Timer
	sendFBFn     des.Event

	// silentFB counts consecutive feedback intervals without data; at
	// cfg.IdleStop the feedback clock stops rescheduling and onIdle
	// (when set) fires.
	silentFB int
	onIdle   func()

	// PacketsReceived counts data packets delivered.
	PacketsReceived int64

	eventsBase int64
	intervals0 int
	trace      *obs.Tracer
}

// NewFlow wires a TFRC sender/receiver pair onto the dumbbell flow and
// returns both. Call sender.Start to begin.
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
// network. Callers that resolve routes themselves — the churn engine
// attaches with explicit hop slices through its executor — attach
// separately; everything else wants NewFlowOn. It allocates the pair's
// buffers and bound callbacks, then gives both endpoints their fresh
// state through the same code Renew runs.
func NewFlowRaw(sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network, flow int, cfg Config) (*Sender, *Receiver) {
	cfg.validate()
	if sndSched == nil || sndNet == nil || rcvSched == nil || rcvNet == nil {
		panic("tfrc: nil scheduler or network")
	}
	rcv := &Receiver{
		sched: rcvSched,
		net:   rcvNet,
		est:   estimator.NewLossIntervalEstimator(estimator.TFRCWeights(cfg.Window)),
		trace: netsim.TracerOf(rcvNet),
	}
	rcv.events = netsim.NewLossEventCounter(func() float64 {
		if rcv.senderRTT > 0 {
			return rcv.senderRTT
		}
		return 0.1
	})
	rcv.sendFBFn = rcv.sendFeedback
	snd := &Sender{
		sched:    sndSched,
		net:      sndNet,
		rtt:      estimator.NewRTT(cfg.RTTq),
		random:   rng.New(0),
		receiver: rcv,
		trace:    netsim.TracerOf(sndNet),
	}
	snd.sendNextFn = snd.sendNext
	snd.onNoFeedbackFn = snd.onNoFeedback
	snd.reset(flow, cfg)
	rcv.reset(flow, cfg)
	return snd, rcv
}

// reset gives the sender its fresh state for flow under cfg. It keeps
// the environment, the buffers and the bound callbacks construction
// allocated; every other field restarts at its zero value or at the
// value named here.
func (s *Sender) reset(flow int, cfg Config) {
	s.rtt.Reset()
	s.random.Reseed(cfg.Seed ^ uint64(flow)*0x9e3779b97f4a7c15)
	*s = Sender{
		cfg: cfg, sched: s.sched, net: s.net, flow: flow,
		rate: cfg.InitialRate, rtt: s.rtt, slowStart: true, random: s.random,
		receiver: s.receiver, trace: s.trace, onDone: s.onDone,
		sendNextFn: s.sendNextFn, onNoFeedbackFn: s.onNoFeedbackFn,
	}
}

// reset gives the receiver its fresh state for flow under cfg, keeping
// what construction allocated, as Sender.reset does.
func (r *Receiver) reset(flow int, cfg Config) {
	r.events.Reset()
	r.est.Reset()
	*r = Receiver{
		cfg: cfg, sched: r.sched, net: r.net, flow: flow,
		events: r.events, est: r.est, sendFBFn: r.sendFBFn, onIdle: r.onIdle, trace: r.trace,
	}
}

// Renew gives the sender and its receiver, in place, the state
// NewFlowRaw builds for flow under cfg, reusing every buffer (loss
// history, estimator, RNG) so churn workloads recycle endpoints without
// allocating. The pair must hold no live timer: it never started, or it
// has quiesced. cfg must keep the estimator window and the RTT gain the
// pair was built with. Renew does not attach the flow: the caller
// attaches it with its hop slices, as the churn engine does through its
// host.
func (s *Sender) Renew(flow int, cfg Config) {
	cfg.validate()
	if cfg.Window != s.cfg.Window || cfg.RTTq != s.cfg.RTTq {
		panic("tfrc: Renew cannot change the estimator window or the RTT gain")
	}
	if !s.idle() {
		panic("tfrc: Renew on a pair with a live timer")
	}
	s.reset(flow, cfg)
	s.receiver.reset(flow, cfg)
}

// Endpoints returns the pair's two ends, the sender and its receiver,
// for callers that attach the flow themselves.
func (s *Sender) Endpoints() (sender, receiver netsim.Endpoint) { return s, s.receiver }

// Start begins transmission.
func (s *Sender) Start() {
	if s.started {
		panic("tfrc: sender already started")
	}
	s.started = true
	s.measStart = s.sched.Now()
	s.minRate = s.rate
	s.sendNext()
	s.armNoFeedback()
}

// Rate returns the current send rate in bytes/second.
func (s *Sender) Rate() float64 { return s.rate }

// Flow returns the sender's current flow id.
func (s *Sender) Flow() int { return s.flow }

// SRTT returns the smoothed RTT estimate (0 before the first feedback).
func (s *Sender) SRTT() float64 { return s.rtt.Value() }

// ResetStats restarts the sender and receiver measurement windows.
func (s *Sender) ResetStats() {
	s.measStart = s.sched.Now()
	s.pktsSent = 0
	s.minRate = s.rate
	s.rttAcc = stats.Welford{}
	s.fbBase = s.fbSeen
	s.nfBase = s.nfHalvings
	s.receiver.eventsBase = s.receiver.events.Events
	s.receiver.intervals0 = len(s.receiver.events.Intervals)
}

// Stats returns the measurement-window summary.
func (s *Sender) Stats() Stats {
	dur := s.sched.Now() - s.measStart
	r := s.receiver
	st := Stats{
		Duration:           dur,
		PacketsSent:        s.pktsSent,
		MeanRTT:            s.rttAcc.Mean(),
		LossEvents:         r.events.Events - r.eventsBase,
		PEstimate:          r.LossEventRateEstimate(),
		FeedbackReceived:   s.fbSeen - s.fbBase,
		NoFeedbackHalvings: s.nfHalvings - s.nfBase,
		MinRate:            s.minRate,
	}
	st.LossIntervals = append(st.LossIntervals, r.events.Intervals[r.intervals0:]...)
	if s.pktsSent > 0 {
		st.LossEventRate = float64(st.LossEvents) / float64(s.pktsSent)
	}
	if dur > 0 {
		st.Throughput = float64(s.pktsSent) / dur
	}
	return st
}

func (s *Sender) sendNext() {
	now := s.sched.Now()
	s.pktsSent++
	p := s.net.GetPacket()
	p.Flow = s.flow
	p.Seq = s.nextSeq
	p.Size = s.cfg.SegSize
	p.SentAt = now
	p.Kind = netsim.Data
	p.RTTEst = s.rtt.Value()
	s.net.SendForward(p)
	s.nextSeq++
	if s.cfg.TotalPackets > 0 && s.nextSeq >= s.cfg.TotalPackets {
		// Transfer complete: stop pacing and let the control loop die.
		// sendTimer was the event that got us here, so neither timer is
		// live past this point.
		s.done = true
		s.nfTimer.Cancel()
		if s.onDone != nil {
			s.onDone()
		}
		return
	}
	gap := float64(s.cfg.SegSize) / s.rate
	if s.cfg.SendJitter > 0 {
		gap *= 1 + s.cfg.SendJitter*(2*s.random.Float64()-1)
	}
	s.sendTimer = s.sched.After(gap, s.sendNextFn)
}

// OnDone registers a callback fired once, when the sender finishes a
// finite transfer (cfg.TotalPackets > 0). It must be set before Start.
func (s *Sender) OnDone(fn func()) { s.onDone = fn }

// Done reports whether a finite transfer has sent its full volume.
func (s *Sender) Done() bool { return s.done }

// Quiesced reports whether the transfer is over for the whole pair:
// the sender is done and neither it nor its receiver holds a live
// timer, so the pair schedules nothing until new data reaches the
// receiver. The churn engine requires this before recycling the pair.
func (s *Sender) Quiesced() bool { return s.done && s.idle() }

// idle reports whether neither end of the pair holds a live timer.
func (s *Sender) idle() bool {
	return !s.sendTimer.Active() && !s.nfTimer.Active() && s.receiver.Idle()
}

// Receive implements netsim.Endpoint for the feedback stream.
func (s *Sender) Receive(p *netsim.Packet) {
	if p.Kind != netsim.Feedback {
		return
	}
	s.fbSeen++
	if s.done {
		// Late report for a finished transfer: count it, but leave the
		// rate and timers alone so the flow stays quiescent.
		return
	}
	now := s.sched.Now()
	if p.Echo > 0 && now > p.Echo {
		sample := now - p.Echo
		s.rtt.Sample(sample)
		s.rttAcc.Add(sample)
	}
	s.lastRecvRt = p.RecvRate
	s.updateRate(p.LossRate, p.RecvRate)
	s.noteMinRate()
	s.armNoFeedback()
}

func (s *Sender) updateRate(p, recvRate float64) {
	if p <= 0 {
		// Slow-start phase: double up to twice the received rate.
		if recvRate > 0 {
			s.rate = math.Max(s.cfg.InitialRate, 2*recvRate)
		} else {
			s.rate *= 2
		}
		return
	}
	s.slowStart = false
	rtt := s.rtt.Value()
	if rtt <= 0 {
		rtt = 0.1
	}
	calc := s.cfg.Formula.rateOf(formula.ParamsForRTT(rtt), math.Min(p, 1)) *
		float64(s.cfg.SegSize) // bytes/s
	// RFC 5348 §4.3: while the loss estimate is rising the rate is
	// capped at the receive rate; otherwise at twice the receive rate.
	limit := 2 * recvRate
	if p > s.lastP {
		limit = recvRate
	}
	s.lastP = p
	if limit <= 0 {
		limit = calc
	}
	s.rate = math.Min(calc, limit)
	// Floor at one packet per two round-trip times (ns-2 TFRC enforces
	// a comparable minimum) so the estimator's open interval can always
	// decay a pessimistic loss estimate within a reasonable horizon.
	s.rate = math.Max(s.rate, float64(s.cfg.SegSize)/(2*rtt))
}

func (s *Sender) armNoFeedback() {
	s.nfTimer.Cancel()
	// RFC 3448 §4.4: the no-feedback interval is max(4R, 2s/X) — the
	// 2s/X term keeps slow senders from spiraling down when packets
	// (and hence feedback) are spaced wider than four round-trip times.
	d := 2.0
	if rtt := s.rtt.Value(); rtt > 0 {
		d = math.Max(4*rtt, 2*float64(s.cfg.SegSize)/s.rate)
	}
	s.nfTimer = s.sched.After(d, s.onNoFeedbackFn)
}

// onNoFeedback fires when no feedback arrived for a full no-feedback
// interval — the report was lost on the reverse path, or the receiver
// went silent: halve the rate and keep waiting. The floor of one packet
// per 8 seconds keeps the sender probing so a recovered reverse path
// can restart the control loop.
func (s *Sender) onNoFeedback() {
	s.nfHalvings++
	s.rate = math.Max(s.rate/2, float64(s.cfg.SegSize)/8)
	s.trace.Emit(s.sched.Now(), obs.EvNoFeedback, int32(s.flow), -1, s.rate)
	s.noteMinRate()
	s.armNoFeedback()
}

// noteMinRate records the window's rate floor after any rate change.
func (s *Sender) noteMinRate() {
	if s.rate < s.minRate {
		s.minRate = s.rate
	}
}

// LossEventRateEstimate returns the receiver's current p estimate: the
// reciprocal of the weighted average loss interval (including the open
// interval when the comprehensive element is enabled), or 0 before the
// first loss event.
func (r *Receiver) LossEventRateEstimate() float64 {
	if !r.sawLoss {
		return 0
	}
	var avg float64
	switch {
	case r.cfg.Comprehensive && r.cfg.HistoryDiscounting:
		avg = r.est.EstimateWithOpenDiscounted(r.events.OpenInterval(r.highest))
	case r.cfg.Comprehensive:
		avg = r.est.EstimateWithOpen(r.events.OpenInterval(r.highest))
	default:
		avg = r.est.Estimate()
	}
	if avg <= 0 {
		return 0
	}
	return math.Min(1, 1/avg)
}

// LossEvents exposes the receiver's loss-event counter (read-only use).
func (r *Receiver) LossEvents() *netsim.LossEventCounter { return r.events }

// Flow returns the receiver's current flow id.
func (r *Receiver) Flow() int { return r.flow }

// Receive implements netsim.Endpoint for the forward data stream.
func (r *Receiver) Receive(p *netsim.Packet) {
	if p.Kind != netsim.Data {
		return
	}
	now := r.sched.Now()
	r.PacketsReceived++
	r.bytesSinceFB += float64(p.Size)
	r.senderRTT = p.RTTEst
	r.lastSentAt = p.SentAt
	r.lastRecvAt = now

	if p.Seq > r.expected {
		// FIFO path: the gap [expected, seq) was lost.
		for lost := r.expected; lost < p.Seq; lost++ {
			if r.events.OnLoss(now, lost) {
				r.onNewEvent(lost)
			}
		}
	}
	if p.Seq >= r.expected {
		r.expected = p.Seq + 1
	}
	if p.Seq > r.highest {
		r.highest = p.Seq
	}
	if !r.fbTimer.Active() {
		r.scheduleFeedback()
	}
}

func (r *Receiver) onNewEvent(seq int64) {
	r.trace.Emit(r.sched.Now(), obs.EvLoss, int32(r.flow), -1, float64(seq))
	if !r.sawLoss {
		r.sawLoss = true
		// RFC 3448 §6.3.1: synthesize the first loss interval so that
		// the initial p matches the receive rate seen so far, keeping
		// the rate continuous across the first loss.
		r.primeFirstInterval()
		return
	}
	// Feed newly closed intervals into the estimator.
	n := len(r.events.Intervals)
	if n > 0 {
		r.est.Observe(r.events.Intervals[n-1])
	}
}

func (r *Receiver) primeFirstInterval() {
	rtt := r.senderRTT
	if rtt <= 0 {
		rtt = 0.1
	}
	recvRate := r.bytesSinceFB / math.Max(r.sched.Now()-r.lastFBAt, r.cfg.MinInterval)
	pktRate := recvRate / float64(r.cfg.SegSize)
	f := r.cfg.Formula.build(formula.ParamsForRTT(rtt))
	if p0, err := formula.Invert(f, pktRate, 1e-7, 0.999); err == nil && p0 > 0 {
		r.est.Prime(1 / p0)
		return
	}
	// Fallback: prime with the packets seen so far.
	r.est.Prime(math.Max(float64(r.highest), 1))
}

func (r *Receiver) scheduleFeedback() {
	rtt := r.senderRTT
	if rtt <= 0 {
		rtt = 0.1
	}
	interval := math.Max(rtt, r.cfg.MinInterval)
	r.fbTimer = r.sched.After(interval, r.sendFBFn)
}

func (r *Receiver) sendFeedback() {
	now := r.sched.Now()
	if r.bytesSinceFB == 0 {
		// No data since the last report: stay silent (RFC 3448 §6.2),
		// letting the sender's no-feedback timer take over. With IdleStop
		// configured, enough consecutive silent intervals stop the clock
		// entirely (a fresh data packet re-arms it via Receive).
		if r.cfg.IdleStop > 0 {
			r.silentFB++
			if r.silentFB >= r.cfg.IdleStop {
				if r.onIdle != nil {
					r.onIdle()
				}
				return
			}
		}
		r.scheduleFeedback()
		return
	}
	r.silentFB = 0
	elapsed := now - r.lastFBAt
	if elapsed <= 0 {
		elapsed = r.cfg.MinInterval
	}
	recvRate := r.bytesSinceFB / elapsed
	r.bytesSinceFB = 0
	r.lastFBAt = now
	// Echo is adjusted for the hold time between the last data arrival
	// and this feedback so the sender measures the true RTT.
	echo := 0.0
	if r.lastSentAt > 0 {
		echo = r.lastSentAt + (now - r.lastRecvAt)
	}
	p := r.net.GetPacket()
	p.Flow = r.flow
	p.Kind = netsim.Feedback
	p.Size = r.cfg.FeedbackSize
	p.Echo = echo
	p.LossRate = r.LossEventRateEstimate()
	p.RecvRate = recvRate
	r.net.SendReverse(p)
	r.scheduleFeedback()
}

// OnIdle registers a callback fired when the feedback clock stops after
// cfg.IdleStop consecutive silent intervals. It must be set before the
// sender starts.
func (r *Receiver) OnIdle(fn func()) { r.onIdle = fn }

// Idle reports whether the receiver holds no live feedback timer, i.e.
// it will never schedule another event until new data arrives.
func (r *Receiver) Idle() bool { return !r.fbTimer.Active() }
