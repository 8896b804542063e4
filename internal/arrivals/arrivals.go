// Package arrivals is the run-time flow lifecycle engine: session
// arrival processes (Poisson or heavy-tailed Weibull interarrivals)
// that attach finite TFRC, TCP or CBR transfers to a running simulation
// and — on the serial executor — detach and recycle them once they go
// quiet, so steady-state churn is allocation-free.
//
// The engine is written against the Host seam so the same arrival
// classes run on the serial engine and the space-parallel sharded one.
// Determinism is preserved by construction:
//
//   - each class's arrivals are one ordinary DES event chain on the
//     scheduler of the class route's first node (the sender shard), so
//     the class RNG's draws (size, next gap) are strictly sequential and
//     executor-invariant;
//   - per-flow seeds derive from the class seed and the arrival index
//     (FlowSeed), never from a shared draw sequence;
//   - endpoint recycling resets a pair to exactly its freshly-built
//     state (protocol Renew contracts), so a pooled attach on the serial
//     engine and a fresh attach on the sharded one produce the same
//     trajectory;
//   - detaching happens only for provably quiet flows — sender done with
//     no live timers, receiver idle, zero packets of the flow inside the
//     network — and mutates no scheduler or ledger state, so reclamation
//     is invisible to the simulation.
//
// Memory follows the live population, not the arrival budget: each
// class keeps its transfers in a live table whose entries are recycled
// through a free list as flows are reclaimed, so the table grows only at
// a new peak of live transfers. The arrival budget (MaxArrivals) sizes
// one int32 per arrival, the index from arrival to live entry.
//
// Beyond driving churn, each class records the Palm-calculus view of
// its own arrival process: the mean population found by an arrival (a
// Palm expectation — PASTA makes it match the time average for Poisson
// classes and not for bursty ones), kept as a running sum in arrival
// order, next to the exact time-average population.
package arrivals

import (
	"fmt"

	"repro/internal/cbr"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// Proto selects the transport of an arrival class.
type Proto int

// Transports.
const (
	// TFRC transfers pace by the equation (internal/tfrc).
	TFRC Proto = iota
	// TCP transfers are NewReno bulk senders (internal/tcp).
	TCP
	// CBR transfers are fixed-rate probes (internal/cbr).
	CBR
)

// String names the transport for table labels.
func (p Proto) String() string {
	switch p {
	case TFRC:
		return "tfrc"
	case TCP:
		return "tcp"
	case CBR:
		return "cbr"
	}
	return "?"
}

// GapKind selects the interarrival distribution.
type GapKind int

// Interarrival processes.
const (
	// Poisson draws exponential gaps of the given rate — the PASTA
	// reference process.
	Poisson GapKind = iota
	// Weibull draws Weibull(shape, scale) gaps; shape < 1 gives the
	// bursty, heavy-tailed session processes of flash crowds.
	Weibull
)

// Gap is an interarrival distribution.
type Gap struct {
	Kind GapKind
	// Rate is the Poisson arrival rate in sessions/second.
	Rate float64
	// Shape and Scale parameterize the Weibull gaps (seconds).
	Shape, Scale float64
}

func (g Gap) validate() {
	switch g.Kind {
	case Poisson:
		if g.Rate <= 0 {
			panic("arrivals: Poisson gap needs a positive rate")
		}
	case Weibull:
		if g.Shape <= 0 || g.Scale <= 0 {
			panic("arrivals: Weibull gap needs positive shape and scale")
		}
	default:
		panic("arrivals: unknown gap kind")
	}
}

func (g Gap) draw(r *rng.RNG) float64 {
	if g.Kind == Poisson {
		return r.Exp(g.Rate)
	}
	return r.Weibull(g.Shape, g.Scale)
}

// SizeKind selects the transfer-size distribution.
type SizeKind int

// Transfer-size laws.
const (
	// Fixed transfers are exactly Packets long.
	Fixed SizeKind = iota
	// Pareto transfers draw a Pareto(Shape, MinPackets) packet count —
	// the web-mice heavy tail.
	Pareto
)

// Size is a transfer-size distribution in packets.
type Size struct {
	Kind SizeKind
	// Packets is the fixed transfer volume.
	Packets int64
	// Shape and MinPackets parameterize the Pareto sizes.
	Shape      float64
	MinPackets float64
	// CapPackets, when positive, truncates Pareto draws (a run-length
	// guard for heavy tails). Ignored for Fixed.
	CapPackets int64
}

func (s Size) validate() {
	switch s.Kind {
	case Fixed:
		if s.Packets < 1 {
			panic("arrivals: fixed size needs at least one packet")
		}
	case Pareto:
		if s.Shape <= 0 || s.MinPackets < 1 {
			panic("arrivals: Pareto size needs positive shape and MinPackets >= 1")
		}
		if s.CapPackets != 0 && float64(s.CapPackets) < s.MinPackets {
			panic("arrivals: Pareto size cap below MinPackets")
		}
	default:
		panic("arrivals: unknown size kind")
	}
}

func (s Size) draw(r *rng.RNG) int64 {
	if s.Kind == Fixed {
		return s.Packets
	}
	n := int64(r.Pareto(s.Shape, s.MinPackets))
	if n < 1 {
		n = 1
	}
	if s.CapPackets > 0 && n > s.CapPackets {
		n = s.CapPackets
	}
	return n
}

// Spec is the executor-independent description of one arrival class:
// what arrives, how often, how big, and when.
type Spec struct {
	// Name labels the class in results.
	Name string
	// Proto selects the transport.
	Proto Proto
	// Gap is the interarrival law.
	Gap Gap
	// Size is the transfer-size law in packets.
	Size Size
	// Start and Stop bound the arrival window in absolute simulation
	// time: the first arrival lands at Start plus one gap draw, and no
	// arrival lands at or after Stop.
	Start, Stop float64
	// MaxArrivals caps the class's arrivals and sizes its flow-id block.
	MaxArrivals int
	// Seed drives the class RNG (gaps and sizes) and, via FlowSeed,
	// every per-flow seed.
	Seed uint64
	// Reverse asks the embedding experiment to route the class over the
	// reverse-direction path (data flowing against the base flows). The
	// engine itself only carries the flag.
	Reverse bool
	// CBRRate is the send rate in packets/second for CBR classes
	// (ignored elsewhere).
	CBRRate float64
}

func (s Spec) validate() {
	if s.Name == "" {
		panic("arrivals: class needs a name")
	}
	if s.MaxArrivals < 1 {
		panic("arrivals: class needs MaxArrivals >= 1")
	}
	if s.Start < 0 || s.Stop <= s.Start {
		panic("arrivals: class needs 0 <= Start < Stop")
	}
	s.Gap.validate()
	s.Size.validate()
}

// Class is a Spec resolved against a concrete topology: the routes its
// transfers ride and the per-transport protocol configuration.
type Class struct {
	Spec
	// FwdHops is the forward route (non-empty). RevHops, when non-empty,
	// routes the feedback/ACK stream; empty means the pure-delay reverse
	// path of RevDelay seconds.
	FwdHops, RevHops []topology.LinkID
	// FwdExtra is the one-way delay past the last forward hop; RevDelay
	// the residual reverse delay (see topology.AttachFlow).
	FwdExtra, RevDelay float64
	// TFRC is the base config for TFRC classes. TotalPackets is set per
	// arrival from the size draw and Seed per flow from FlowSeed;
	// IdleStop must be positive so departed receivers stop their
	// feedback clock.
	TFRC tfrc.Config
	// TCP is the base config for TCP classes (TotalSegments set per
	// arrival).
	TCP tcp.Config
	// CBRSize is the CBR packet length in bytes; CBRRTT the loss-event
	// grouping window of CBR transfers (Spec.CBRRate sets their rate).
	CBRSize int
	CBRRTT  float64
}

// FlowSeed derives the per-flow protocol seed for the i-th arrival of a
// class: a splitmix64 finalize of the class seed and the arrival index,
// so any executor — and any replay — assigns the same seed to the same
// arrival without consuming class RNG draws.
func FlowSeed(classSeed uint64, i int) uint64 {
	x := classSeed + (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Host is the surface the engine runs against; shard.Cluster satisfies
// it at any shard count.
type Host interface {
	// RouteEnv resolves the scheduler/network pairs the two endpoints of
	// a flow over the route must be built on.
	RouteEnv(fwdHops []topology.LinkID) (sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network)
	// AttachLive registers a flow at simulation time with explicit
	// routes; the flow id must be inside the host's reserved flow table.
	AttachLive(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []topology.LinkID, fwdExtra, revDelay float64)
	// Lifecycle returns the reclamation surface, or nil when the host
	// cannot detach flows mid-run (several shards: a detach would be a
	// cross-shard write, so churn flows simply stay attached).
	Lifecycle() Lifecycle
}

// Lifecycle is the serial executor's detach surface: per-flow in-network
// accounting with a quiet callback, and the detach itself.
// topology.Network satisfies it.
type Lifecycle interface {
	// WatchFlows enables per-flow packet accounting for ids [lo, lo+count),
	// invoking onQuiet each time a watched flow's count returns to zero.
	WatchFlows(lo, count int, onQuiet func(flow int))
	// DetachFlow removes a quiet flow and recycles its routing record.
	DetachFlow(flow int)
	// InFlight returns the watched flow's current in-network packet count.
	InFlight(flow int) int
}

// ClassResult summarizes one class after a run.
type ClassResult struct {
	// Name echoes the class label; Proto its transport.
	Name  string
	Proto Proto
	// Arrivals counts sessions that arrived; Completions those whose
	// sender finished its volume before the run ended.
	Arrivals, Completions int64
	// Constructions counts endpoint pairs actually built — on the serial
	// executor the pool bounds this by the peak concurrent population,
	// on the sharded one it equals Arrivals (no reclamation).
	Constructions int64
	// Reclaimed counts flows detached and recycled mid-run (serial only).
	Reclaimed int64
	// Peak is the maximum concurrent population; ActiveAtEnd the
	// population when the run ended.
	Peak, ActiveAtEnd int
	// MeanDuration averages completed transfers' durations in seconds.
	MeanDuration float64
	// PalmPop is the mean population found by an arrival (the Palm
	// expectation E0[N]); TimePop the exact time-average population over
	// [Start, end]. PASTA makes the two agree for Poisson classes.
	PalmPop, TimePop float64
}

// transfer is one live transfer: an arrival's endpoints and lifecycle,
// from its attach until the engine reclaims it.
type transfer struct {
	tfrcSnd *tfrc.Sender
	tfrcRcv *tfrc.Receiver
	tcpSnd  *tcp.Sender
	tcpRcv  *tcp.Receiver
	probe   *cbr.Probe

	startedAt float64
	done      bool
}

// tfrcPair / tcpPair are the serial executor's recycling pools' units.
type tfrcPair struct {
	snd *tfrc.Sender
	rcv *tfrc.Receiver
}
type tcpPair struct {
	snd *tcp.Sender
	rcv *tcp.Receiver
}

// classState is one armed class: resolved environment, RNG, pools and
// statistics. All of it is touched only from the class's sender-shard
// event chain (arrivals, completions), except the engine-level reclaim
// path which the serial executor runs on its single scheduler.
type classState struct {
	Class
	eng       *Engine
	firstFlow int

	sndSched *des.Scheduler
	sndNet   netsim.Network
	rcvSched *des.Scheduler
	rcvNet   netsim.Network

	random   *rng.RNG
	arriveFn des.Event
	arriveTm des.Timer // pending next-arrival event, if any
	next     int       // arrival index of the next arrival

	// live holds the transfers that have arrived and are not reclaimed
	// yet; a reclaimed transfer's entry goes on free for the next
	// arrival, so the table grows only at a new peak of live transfers.
	// index[i] is arrival i's entry in live plus one: 0 before it
	// arrives and once it is reclaimed.
	live  []transfer
	free  []int32
	index []int32

	tfrcPool []tfrcPair
	tcpPool  []tcpPair
	cbrPool  []*cbr.Probe

	constructions int64
	reclaimed     int64
	completions   int64
	durSum        float64

	pop         int
	peak        int
	popIntegral float64
	lastChange  float64

	// palmSum and palmN are the running Palm sums: the populations found
	// by the arrivals whose inter-arrival cycle closed with a positive
	// length, added in arrival order, and their count. The last arrival's
	// cycle stays open (lastArrivalAt, lastPop) until the next arrival or
	// the end of the run closes it.
	palmSum       float64
	palmN         int
	lastArrivalAt float64
	lastPop       float64
	openCycle     bool
}

// Engine drives a set of arrival classes against one executor.
type Engine struct {
	host    Host
	lc      Lifecycle
	classes []*classState
	lo      int // first churn flow id
	count   int // total reserved churn flow ids
	armed   bool
}

// NewEngine resolves the classes against the host, assigning each a
// contiguous flow-id block starting at firstFlow in class order. The
// caller must reserve the flow table — ids [0, FlowRange's lo+count) —
// on the executor before the first Run, and declare any cross-shard
// pure-delay reverse channels (shard.Cluster.DeclareReverseChannel).
func NewEngine(host Host, firstFlow int, classes []Class) *Engine {
	if host == nil {
		panic("arrivals: nil host")
	}
	if firstFlow < 0 {
		panic("arrivals: negative first flow id")
	}
	if len(classes) == 0 {
		panic("arrivals: no classes")
	}
	e := &Engine{host: host, lc: host.Lifecycle(), lo: firstFlow}
	next := firstFlow
	for i := range classes {
		c := classes[i]
		c.Spec.validate()
		if len(c.FwdHops) == 0 {
			panic(fmt.Sprintf("arrivals: class %s has no forward route", c.Name))
		}
		if c.FwdExtra < 0 || c.RevDelay < 0 {
			panic(fmt.Sprintf("arrivals: class %s has a negative delay", c.Name))
		}
		switch c.Proto {
		case TFRC:
			if c.TFRC.IdleStop < 1 {
				panic(fmt.Sprintf("arrivals: TFRC class %s needs IdleStop >= 1 (the feedback clock must be able to die)", c.Name))
			}
		case TCP:
			// base config validated by the protocol on first use
		case CBR:
			if c.CBRRate <= 0 || c.CBRSize <= 0 || c.CBRRTT <= 0 {
				panic(fmt.Sprintf("arrivals: CBR class %s needs positive rate, size and rtt", c.Name))
			}
		default:
			panic("arrivals: unknown protocol")
		}
		cs := &classState{Class: c, eng: e, firstFlow: next}
		cs.sndSched, cs.sndNet, cs.rcvSched, cs.rcvNet = host.RouteEnv(c.FwdHops)
		cs.random = rng.New(c.Seed)
		cs.arriveFn = cs.arrive
		next += c.MaxArrivals
		e.classes = append(e.classes, cs)
	}
	e.count = next - firstFlow
	return e
}

// FlowRange returns the engine's flow-id block: ids [lo, lo+count).
func (e *Engine) FlowRange() (lo, count int) { return e.lo, e.count }

// Arm allocates each class's arrival index (one int32 per budgeted
// arrival; the live table grows with the population, so steady-state
// churn allocates nothing), installs the quiet watch on serial
// executors, and schedules every class's first arrival. Call once,
// before the first Run.
func (e *Engine) Arm() {
	if e.armed {
		panic("arrivals: engine armed twice")
	}
	e.armed = true
	if e.lc != nil {
		e.lc.WatchFlows(e.lo, e.count, e.onQuiet)
	}
	for _, cs := range e.classes {
		cs.index = make([]int32, cs.MaxArrivals)
		cs.lastChange = cs.Start
		if t := cs.Start + cs.Gap.draw(cs.random); t < cs.Stop {
			cs.arriveTm = cs.sndSched.At(t, cs.arriveFn)
		}
	}
}

// classOf maps a churn flow id to its class and arrival index.
func (e *Engine) classOf(flow int) (*classState, int) {
	for _, cs := range e.classes {
		if i := flow - cs.firstFlow; i >= 0 && i < cs.MaxArrivals {
			return cs, i
		}
	}
	return nil, 0
}

// onQuiet is the serial executor's zero-crossing hook: a watched flow's
// last in-network packet just returned to the freelist.
func (e *Engine) onQuiet(flow int) { e.maybeReclaim(flow) }

// maybeReclaim detaches and recycles a churn flow iff it is provably
// quiet: its sender done with no live timers, its receiver holding no
// feedback timer, and no packets of the flow inside the network. Quiet
// is absorbing — a done sender never sends again and an idle receiver
// only re-arms on new data — so the check can run on every trigger
// (zero crossings, sender completion, receiver idle) without ordering
// sensitivity.
func (e *Engine) maybeReclaim(flow int) {
	if e.lc == nil {
		return
	}
	cs, i := e.classOf(flow)
	if cs == nil {
		return
	}
	t := cs.transfer(i)
	if t == nil || !t.done {
		return
	}
	switch cs.Proto {
	case TFRC:
		if !t.tfrcSnd.Quiesced() || !t.tfrcRcv.Idle() {
			return
		}
	case TCP:
		if !t.tcpSnd.Quiesced() {
			return
		}
	case CBR:
		if !t.probe.Quiesced() {
			return
		}
	}
	if e.lc.InFlight(flow) != 0 {
		return
	}
	e.lc.DetachFlow(flow)
	cs.reclaimed++
	switch cs.Proto {
	case TFRC:
		cs.tfrcPool = append(cs.tfrcPool, tfrcPair{t.tfrcSnd, t.tfrcRcv})
	case TCP:
		cs.tcpPool = append(cs.tcpPool, tcpPair{t.tcpSnd, t.tcpRcv})
	case CBR:
		cs.cbrPool = append(cs.cbrPool, t.probe)
	}
	cs.release(i)
}

// transfer returns arrival i's live transfer, nil before it arrives and
// once it is reclaimed. The pointer is valid until the next admit.
func (cs *classState) transfer(i int) *transfer {
	if k := cs.index[i]; k != 0 {
		return &cs.live[k-1]
	}
	return nil
}

// admit files arrival i in the live table, on a freed entry when there
// is one.
func (cs *classState) admit(i int) *transfer {
	var k int32
	if n := len(cs.free); n > 0 {
		k = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		k = int32(len(cs.live))
		cs.live = append(cs.live, transfer{})
	}
	cs.index[i] = k + 1
	return &cs.live[k]
}

// release clears reclaimed arrival i's entry onto the free list.
func (cs *classState) release(i int) {
	k := cs.index[i] - 1
	cs.index[i] = 0
	cs.live[k] = transfer{}
	cs.free = append(cs.free, k)
}

// arrive is one class's arrival event: close the previous inter-arrival
// cycle, account the population this arrival finds, attach and start a
// transfer of a drawn size, and schedule the next arrival. The size and
// gap draws are strictly sequential on this one event chain, so the
// class RNG's stream is executor-invariant.
func (cs *classState) arrive() {
	now := cs.sndSched.Now()
	if cs.openCycle && now > cs.lastArrivalAt {
		cs.palmSum += cs.lastPop
		cs.palmN++
	}
	found := cs.pop
	cs.lastPop = float64(found)
	cs.lastArrivalAt = now
	cs.openCycle = true

	cs.popIntegral += float64(cs.pop) * (now - cs.lastChange)
	cs.lastChange = now
	cs.pop++
	if cs.pop > cs.peak {
		cs.peak = cs.pop
	}

	i := cs.next
	cs.next++
	flow := cs.firstFlow + i
	size := cs.Size.draw(cs.random)
	cs.start(i, flow, size, now)

	if cs.next < cs.MaxArrivals {
		if t := now + cs.Gap.draw(cs.random); t < cs.Stop {
			cs.arriveTm = cs.sndSched.At(t, cs.arriveFn)
		}
	}
}

// start files the i-th transfer in the live table, then attaches and
// starts it: a pooled endpoint pair renewed in place when the serial
// executor has reclaimed one, a fresh pair otherwise. Renew resets a
// pair to exactly its freshly-built state, so both paths produce the
// same trajectory.
func (cs *classState) start(i, flow int, size int64, now float64) {
	t := cs.admit(i)
	t.startedAt = now
	seed := FlowSeed(cs.Seed, i)
	switch cs.Proto {
	case TFRC:
		cfg := cs.TFRC
		cfg.Seed = seed
		cfg.TotalPackets = size
		if n := len(cs.tfrcPool); n > 0 {
			p := cs.tfrcPool[n-1]
			cs.tfrcPool = cs.tfrcPool[:n-1]
			t.tfrcSnd, t.tfrcRcv = p.snd, p.rcv
			tfrc.Renew(p.snd, p.rcv, flow, cfg)
		} else {
			cs.constructions++
			t.tfrcSnd, t.tfrcRcv = cs.newTFRC(flow, cfg)
		}
		cs.eng.host.AttachLive(flow, t.tfrcSnd, t.tfrcRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
		t.tfrcSnd.Start()
	case TCP:
		cfg := cs.TCP
		cfg.TotalSegments = size
		if n := len(cs.tcpPool); n > 0 {
			p := cs.tcpPool[n-1]
			cs.tcpPool = cs.tcpPool[:n-1]
			t.tcpSnd, t.tcpRcv = p.snd, p.rcv
			tcp.Renew(p.snd, p.rcv, flow, cfg)
		} else {
			cs.constructions++
			t.tcpSnd, t.tcpRcv = cs.newTCP(flow, cfg)
		}
		cs.eng.host.AttachLive(flow, t.tcpSnd, t.tcpRcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
		t.tcpSnd.Start()
	case CBR:
		if n := len(cs.cbrPool); n > 0 {
			p := cs.cbrPool[n-1]
			cs.cbrPool = cs.cbrPool[:n-1]
			t.probe = p
			p.Renew(flow, cs.CBRSize, cs.CBRRate, false, cs.CBRRTT, seed)
		} else {
			cs.constructions++
			p := cs.probe(flow, seed)
			t.probe = p
		}
		t.probe.SetTotalPackets(size)
		snd, rcv := t.probe.Endpoints()
		cs.eng.host.AttachLive(flow, snd, rcv, cs.FwdHops, cs.RevHops, cs.FwdExtra, cs.RevDelay)
		t.probe.Start()
	}
}

// newTFRC builds a fresh TFRC endpoint pair with its lifecycle hooks
// bound once: the closures capture the endpoints, which know their
// current flow, so recycling does not rebuild them.
func (cs *classState) newTFRC(flow int, cfg tfrc.Config) (*tfrc.Sender, *tfrc.Receiver) {
	snd, rcv := tfrc.NewFlowRaw(cs.sndSched, cs.sndNet, cs.rcvSched, cs.rcvNet, flow, cfg)
	snd.OnDone(func() { cs.flowDone(snd.Flow()) })
	rcv.OnIdle(func() { cs.eng.maybeReclaim(rcv.Flow()) })
	return snd, rcv
}

// newTCP builds a fresh TCP endpoint pair with its completion hook
// bound once.
func (cs *classState) newTCP(flow int, cfg tcp.Config) (*tcp.Sender, *tcp.Receiver) {
	snd := tcp.NewSender(cs.sndSched, cs.sndNet, flow, cfg)
	rcv := tcp.NewReceiver(cs.rcvSched, cs.rcvNet, flow, cfg)
	snd.OnDone(func() { cs.flowDone(snd.Flow()) })
	return snd, rcv
}

// probe builds a fresh CBR probe with its completion hook bound once.
// The receiver side is pointed at the receiver shard's scheduler: the
// loss-detecting endpoint fires there, and on the goroutine-per-shard
// driver it may not read the sender shard's clock.
func (cs *classState) probe(flow int, seed uint64) *cbr.Probe {
	p := cbr.NewProbeRaw(cs.sndSched, cs.sndNet, flow, cs.CBRSize, cs.CBRRate, false, cs.CBRRTT, seed)
	p.SetReceiverScheduler(cs.rcvSched)
	p.OnDone(func() { cs.flowDone(p.Flow()) })
	return p
}

// flowDone fires from inside the sender-shard event that completes a
// transfer (last packet sent for TFRC/CBR, full volume acknowledged for
// TCP) — so every executor accounts the completion at the same instant.
func (cs *classState) flowDone(flow int) {
	t := cs.transfer(flow - cs.firstFlow)
	if t == nil || t.done {
		return
	}
	t.done = true
	now := cs.sndSched.Now()
	cs.completions++
	cs.durSum += now - t.startedAt
	cs.popIntegral += float64(cs.pop) * (now - cs.lastChange)
	cs.lastChange = now
	cs.pop--
	// The departing packets may already be out of the network (TCP: the
	// completing ACK was the last), so try reclaiming right away; if
	// packets are still draining, the freelist zero-crossing retries.
	cs.eng.maybeReclaim(flow)
}

// Results finalizes the classes at absolute time end (the run's end)
// and returns one summary per class, in declaration order. The open
// population integral and the last open cycle are closed at end.
func (e *Engine) Results(end float64) []ClassResult {
	out := make([]ClassResult, 0, len(e.classes))
	for _, cs := range e.classes {
		r := ClassResult{
			Name:          cs.Name,
			Proto:         cs.Proto,
			Arrivals:      int64(cs.next),
			Completions:   cs.completions,
			Constructions: cs.constructions,
			Reclaimed:     cs.reclaimed,
			Peak:          cs.peak,
			ActiveAtEnd:   cs.pop,
		}
		if cs.completions > 0 {
			r.MeanDuration = cs.durSum / float64(cs.completions)
		}
		integral := cs.popIntegral
		span := end - cs.Start
		if end > cs.lastChange {
			integral += float64(cs.pop) * (end - cs.lastChange)
		}
		if span > 0 {
			r.TimePop = integral / span
		}
		// Palm mean over arrivals: the population each arrival found,
		// one sample per inter-arrival cycle, the open one closed at end.
		sum, n := cs.palmSum, cs.palmN
		if cs.openCycle && end > cs.lastArrivalAt {
			sum += cs.lastPop
			n++
		}
		if n > 0 {
			r.PalmPop = sum / float64(n)
		}
		out = append(out, r)
	}
	return out
}
