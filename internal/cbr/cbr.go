// Package cbr provides the non-adaptive probe senders of the paper's
// experiments: a constant-bit-rate source, a Poisson source (used as the
// p” reference in Claim 3 / Figure 7), and the audio-style sender of
// Claim 2 / Figure 6 that keeps a fixed packet rate but modulates packet
// length by the equation.
package cbr

import (
	"math"

	"repro/internal/des"
	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// Probe is a non-adaptive sender that records the loss events its own
// packet stream experiences (detected at the receiver by sequence gaps).
// It is the measurement instrument for the "non-adaptive source" rows of
// Figure 7.
type Probe struct {
	sched *des.Scheduler
	// rcvSched is the clock the receiver-side endpoint reads. It equals
	// sched unless the flow's endpoints are split across shard
	// schedulers, where reading the sender's clock from the receiver's
	// goroutine would race — and would read a mid-window instant instead
	// of the delivery time.
	rcvSched *des.Scheduler
	net      netsim.Network
	flow     int
	size     int
	rate     float64 // packets per second
	poisson  bool
	random   *rng.RNG

	nextSeq    int64
	total      int64 // 0 = unbounded; else stop after this many packets
	started    bool
	done       bool
	sendTimer  des.Timer
	sendNextFn des.Event // bound once: the pacing loop re-arms per packet
	onDone     func()

	// Endpoints built once at construction and kept by Renew, so
	// recycling a probe re-attaches without allocating fresh closures.
	sendEP, recvEP netsim.Endpoint

	// receiver side
	expected int64
	events   *netsim.LossEventCounter
	rttGuess float64

	measStart  float64
	pktsSent   int64
	eventsBase int64
}

// ProbeStats summarizes a probe measurement window.
type ProbeStats struct {
	// Duration is the window length in seconds.
	Duration float64
	// PacketsSent counts packets sent in the window.
	PacketsSent int64
	// LossEvents counts loss events detected in the window.
	LossEvents int64
	// LossEventRate is LossEvents/PacketsSent.
	LossEventRate float64
}

// NewProbe attaches a probe flow to the network. The sender side runs
// on sched and sends through net; the receiver side reads rcvSched, the
// scheduler its endpoint fires on, which differs from sched when the
// flow's ends sit on different shards. rate is in packets per second;
// if poisson is true the inter-packet gaps are exponential (Poisson
// arrivals), otherwise constant (CBR). rttGuess sets the loss-event
// grouping window.
func NewProbe(sched *des.Scheduler, net netsim.Network, rcvSched *des.Scheduler, flow int, size int, rate float64, poisson bool, rttGuess float64, seed uint64, fwdExtra, revDelay float64) *Probe {
	p := NewProbeRaw(sched, net, rcvSched, flow, size, rate, poisson, rttGuess, seed)
	net.AttachFlow(flow, p.sendEP, p.recvEP, fwdExtra, revDelay)
	return p
}

// NewProbeRaw is NewProbe without attaching the flow, for callers that
// attach with explicit hop slices through their executor (see
// Endpoints). It allocates the probe's buffers and bound callbacks, then
// gives the probe its fresh state through the same code Renew runs.
func NewProbeRaw(sched *des.Scheduler, net netsim.Network, rcvSched *des.Scheduler, flow int, size int, rate float64, poisson bool, rttGuess float64, seed uint64) *Probe {
	if sched == nil || net == nil || rcvSched == nil {
		panic("cbr: nil scheduler or network")
	}
	p := &Probe{sched: sched, rcvSched: rcvSched, net: net, random: rng.New(0)}
	p.events = netsim.NewLossEventCounter(func() float64 { return p.rttGuess })
	p.sendNextFn = p.sendNext
	p.sendEP = netsim.EndpointFunc(func(*netsim.Packet) {})
	p.recvEP = netsim.EndpointFunc(p.receive)
	p.reset(flow, size, rate, poisson, rttGuess, seed)
	return p
}

// reset gives the probe its fresh state for the given flow and
// parameters. It keeps the environment, the buffers, the endpoints and
// the bound callbacks; every other field restarts at its zero value or
// at the value named here. The packet total restarts unbounded.
func (p *Probe) reset(flow, size int, rate float64, poisson bool, rttGuess float64, seed uint64) {
	if size <= 0 || rate <= 0 || rttGuess <= 0 {
		panic("cbr: invalid probe parameters")
	}
	p.random.Reseed(seed)
	p.events.Reset()
	*p = Probe{
		sched: p.sched, rcvSched: p.rcvSched, net: p.net, flow: flow, size: size, rate: rate,
		poisson: poisson, random: p.random, sendNextFn: p.sendNextFn, onDone: p.onDone,
		sendEP: p.sendEP, recvEP: p.recvEP, events: p.events, rttGuess: rttGuess,
	}
}

// Endpoints returns the probe's sender-side and receiver-side endpoint
// closures, for callers that attach the flow themselves.
func (p *Probe) Endpoints() (sender, receiver netsim.Endpoint) { return p.sendEP, p.recvEP }

// Flow returns the probe's current flow id.
func (p *Probe) Flow() int { return p.flow }

// SetTotalPackets bounds the transfer to n packets (0 = unbounded).
// Must be called before Start.
func (p *Probe) SetTotalPackets(n int64) {
	if p.started {
		panic("cbr: SetTotalPackets after Start")
	}
	if n < 0 {
		panic("cbr: negative packet total")
	}
	p.total = n
}

// OnDone registers a callback fired once, from inside the event that
// sends a finite probe's last packet. Set before Start.
func (p *Probe) OnDone(fn func()) { p.onDone = fn }

// Done reports whether a finite probe has sent its full volume.
func (p *Probe) Done() bool { return p.done }

// Quiesced reports whether the probe is done and holds no live pacing
// timer, i.e. it will never schedule another event.
func (p *Probe) Quiesced() bool { return p.done && !p.sendTimer.Active() }

// Start begins transmission.
func (p *Probe) Start() {
	if p.started {
		panic("cbr: probe already started")
	}
	p.started = true
	p.measStart = p.sched.Now()
	if p.sendNextFn == nil {
		p.sendNextFn = p.sendNext
	}
	p.sendNext()
}

// ResetStats restarts the measurement window.
func (p *Probe) ResetStats() {
	p.measStart = p.sched.Now()
	p.pktsSent = 0
	p.eventsBase = p.events.Events
}

// Stats returns the measurement-window summary.
func (p *Probe) Stats() ProbeStats {
	dur := p.sched.Now() - p.measStart
	st := ProbeStats{
		Duration:    dur,
		PacketsSent: p.pktsSent,
		LossEvents:  p.events.Events - p.eventsBase,
	}
	if p.pktsSent > 0 {
		st.LossEventRate = float64(st.LossEvents) / float64(p.pktsSent)
	}
	return st
}

func (p *Probe) sendNext() {
	p.pktsSent++
	pkt := p.net.GetPacket()
	pkt.Flow = p.flow
	pkt.Seq = p.nextSeq
	pkt.Size = p.size
	pkt.SentAt = p.sched.Now()
	pkt.Kind = netsim.Data
	p.net.SendForward(pkt)
	p.nextSeq++
	if p.total > 0 && p.nextSeq >= p.total {
		// sendTimer was the event that got us here, so nothing is live.
		p.done = true
		if p.onDone != nil {
			p.onDone()
		}
		return
	}
	gap := 1 / p.rate
	if p.poisson {
		gap = p.random.Exp(p.rate)
	}
	p.sendTimer = p.sched.After(gap, p.sendNextFn)
}

// Renew gives the probe, in place, the state NewProbeRaw builds for
// the given flow and parameters, reusing the loss-counter buffer, RNG
// and endpoint closures so churn workloads recycle probes without
// allocating. The probe must hold no live timer: it never started, or
// it has quiesced. The flow is NOT re-attached — callers attach
// p.Endpoints() through their executor. The packet total resets to
// unbounded — call SetTotalPackets again for a finite transfer.
func (p *Probe) Renew(flow, size int, rate float64, poisson bool, rttGuess float64, seed uint64) {
	if p.sendTimer.Active() {
		panic("cbr: Renew on a probe with a live timer")
	}
	p.reset(flow, size, rate, poisson, rttGuess, seed)
}

func (p *Probe) receive(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	now := p.rcvSched.Now()
	if pkt.Seq > p.expected {
		for lost := p.expected; lost < pkt.Seq; lost++ {
			p.events.OnLoss(now, lost)
		}
	}
	if pkt.Seq >= p.expected {
		p.expected = pkt.Seq + 1
	}
}

// Audio is the Claim 2 / Figure 6 sender: it emits one packet every
// Spacing seconds (fixed packet rate) and adjusts the packet LENGTH to
// match the equation's byte rate, evaluated at the loss-event interval
// estimate its own stream experiences. The packets traverse a Bernoulli
// dropper, so the loss process is independent of packet length — the
// condition under which cov[X0, S0] = 0.
//
// Audio runs standalone on a lossy channel rather than over netsim links
// (the paper's Figure 6 uses a pure loss module); packet "delivery" is
// immediate and only the drop lottery matters.
type Audio struct {
	// Spacing is the fixed inter-packet time in seconds.
	Spacing float64
	// DropP is the Bernoulli per-packet drop probability.
	DropP float64
	// Formula maps the estimated loss-event rate to a byte rate.
	Formula formula.Formula
	// BytesPerPacketAtRate converts rate to packet length: the packet
	// length for rate X is X·Spacing bytes.

	est    *estimator.LossIntervalEstimator
	random *rng.RNG
}

// NewAudio builds the audio sender with estimator window L.
func NewAudio(f formula.Formula, L int, spacing, dropP float64, seed uint64) *Audio {
	if f == nil || L < 1 || spacing <= 0 || dropP <= 0 || dropP > 1 {
		panic("cbr: invalid audio parameters")
	}
	return &Audio{
		Spacing: spacing,
		DropP:   dropP,
		Formula: f,
		est:     estimator.NewLossIntervalEstimator(estimator.TFRCWeights(L)),
		random:  rng.New(seed),
	}
}

// AudioResult summarizes a Run.
type AudioResult struct {
	// Throughput is the time-average byte rate.
	Throughput float64
	// LossEventRate is the measured per-packet loss-event rate
	// (with a Bernoulli dropper every loss is its own event).
	LossEventRate float64
	// Normalized is Throughput / f(LossEventRate) — Figure 6 top.
	Normalized float64
	// CVEstimatorSq is the squared coefficient of variation of the
	// loss-interval estimate — Figure 6 bottom.
	CVEstimatorSq float64
	// Events counts the measured loss events.
	Events int
}

// Run simulates the audio sender for the given number of loss events
// (after priming the estimator with warmup events) and returns the
// long-run statistics. The formula's rate unit is interpreted as the
// modulated send rate; time advances Spacing per packet.
func (a *Audio) Run(events, warmup int) AudioResult {
	if events <= 0 || warmup < 0 {
		panic("cbr: invalid audio run sizing")
	}
	// Prime with a few observed intervals.
	for i := 0; i < a.est.Window(); i++ {
		a.est.Observe(float64(a.random.Geometric(a.DropP)))
	}
	var (
		sumXT, sumT float64
		sumHat      float64
		sumHatSq    float64
		thetaSum    float64
		n           int
	)
	total := warmup + events
	for i := 0; i < total; i++ {
		hat := a.est.Estimate()
		rate := a.Formula.Rate(math.Min(1, 1/hat))
		theta := float64(a.random.Geometric(a.DropP))
		dur := theta * a.Spacing
		if i >= warmup {
			sumXT += rate * dur
			sumT += dur
			sumHat += hat
			sumHatSq += hat * hat
			thetaSum += theta
			n++
		}
		a.est.Observe(theta)
	}
	meanHat := sumHat / float64(n)
	varHat := sumHatSq/float64(n) - meanHat*meanHat
	res := AudioResult{
		Throughput:    sumXT / sumT,
		LossEventRate: float64(n) / thetaSum,
		Events:        n,
	}
	res.Normalized = res.Throughput / a.Formula.Rate(res.LossEventRate)
	if meanHat > 0 && varHat > 0 {
		res.CVEstimatorSq = varHat / (meanHat * meanHat)
	}
	return res
}
