package netsim

import (
	"repro/internal/des"
	"repro/internal/rng"
)

// CrossTraffic injects unresponsive background load at the bottleneck:
// an on/off source whose on-period burst sizes are Pareto distributed
// (heavy-tailed, the standard model for web-like cross traffic) and
// whose off periods are exponential. During an on period it emits
// packets back to back at PeakRate. Packets carry a flow id that is not
// attached to any receiver, so they vanish at the end of their route
// (the bottleneck on a dumbbell, or wherever the topology sinks them) —
// exactly the role of cross traffic in the paper's wide-area paths.
type CrossTraffic struct {
	sched *des.Scheduler
	net   Network
	// Flow is the (unattached) flow id used for the packets.
	Flow int
	// PeakRate is the on-period send rate in bytes/second.
	PeakRate float64
	// MeanBurst is the mean on-period burst size in packets.
	MeanBurst float64
	// ParetoShape is the burst-size tail index (1 < shape <= 2 gives
	// the heavy tails observed for flow sizes; 1.5 is customary).
	ParetoShape float64
	// MeanOff is the mean off-period duration in seconds.
	MeanOff float64
	// PacketSize is the packet size in bytes.
	PacketSize int

	random  *rng.RNG
	started bool
	// PacketsSent counts emitted packets; it is also the next packet's
	// sequence number.
	PacketsSent int64

	remaining int // packets left in the current burst
	// Bound callbacks, allocated once so the burst loop schedules
	// without capturing closures.
	startBurstFn des.Event
	burstStepFn  des.Event
	// tm is the pending timer, retained so a snapshot can save and
	// re-arm it with its original identity; stepping records which of
	// the two callbacks it fires (burstStepFn when set).
	tm       des.Timer
	stepping bool
}

// NewCrossTraffic builds a cross-traffic source on the network.
func NewCrossTraffic(sched *des.Scheduler, net Network, flow int, peakRate, meanBurst, paretoShape, meanOff float64, packetSize int, seed uint64) *CrossTraffic {
	if sched == nil || net == nil {
		panic("netsim: nil scheduler or network")
	}
	if peakRate <= 0 || meanBurst < 1 || paretoShape <= 1 || meanOff <= 0 || packetSize <= 0 {
		panic("netsim: invalid cross-traffic parameters")
	}
	c := &CrossTraffic{
		sched:       sched,
		net:         net,
		Flow:        flow,
		PeakRate:    peakRate,
		MeanBurst:   meanBurst,
		ParetoShape: paretoShape,
		MeanOff:     meanOff,
		PacketSize:  packetSize,
		random:      rng.New(seed),
	}
	c.startBurstFn = c.startBurst
	c.burstStepFn = c.burstStep
	return c
}

// Start begins the on/off cycle (with an initial off period).
func (c *CrossTraffic) Start() {
	if c.started {
		panic("netsim: cross traffic already started")
	}
	c.started = true
	c.scheduleOff()
}

// MeanRate returns the long-run average offered load in bytes/second:
// burst bytes over (burst time + mean off time).
func (c *CrossTraffic) MeanRate() float64 {
	burstBytes := c.MeanBurst * float64(c.PacketSize)
	burstTime := burstBytes / c.PeakRate
	return burstBytes / (burstTime + c.MeanOff)
}

func (c *CrossTraffic) scheduleOff() {
	off := c.random.Exp(1 / c.MeanOff)
	c.tm = c.sched.After(off, c.startBurstFn)
	c.stepping = false
}

func (c *CrossTraffic) startBurst() {
	// Pareto with the requested mean: scale = mean·(shape-1)/shape.
	scale := c.MeanBurst * (c.ParetoShape - 1) / c.ParetoShape
	n := int(c.random.Pareto(c.ParetoShape, scale) + 0.5)
	if n < 1 {
		n = 1
	}
	c.remaining = n
	c.burstStep()
}

func (c *CrossTraffic) burstStep() {
	if c.remaining <= 0 {
		c.scheduleOff()
		return
	}
	c.remaining--
	p := c.net.GetPacket()
	p.Flow = c.Flow
	p.Seq = c.PacketsSent
	p.Size = c.PacketSize
	p.SentAt = c.sched.Now()
	p.Kind = Data
	c.PacketsSent++
	c.net.SendForward(p)
	gap := float64(c.PacketSize) / c.PeakRate
	c.tm = c.sched.After(gap, c.burstStepFn)
	c.stepping = true
}
