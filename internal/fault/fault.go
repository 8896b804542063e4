// Package fault injects deterministic failures into a running
// simulation: scheduled link outages, runtime capacity renegotiation
// and Gilbert–Elliott bursty loss processes, all expressed as a
// declarative Plan of timed events armed before the run starts.
//
// # Determinism
//
// Every fault is an ordinary DES event on the scheduler that owns the
// affected link (Host.LinkSched), armed in plan order before simulated
// time advances. On the sharded engine each event therefore fires on
// the shard that serializes the link's packets — fault state is only
// ever touched from the link's own scheduler, no cross-shard writes —
// and the bursty-loss lottery draws from a dedicated per-link RNG
// stream (LinkSeed) advanced once per packet offered to the link.
// Packet arrival order at a link is part of the executor determinism
// contract, so the same plan produces byte-identical trajectories on
// the serial engine and at any shard or worker count.
//
// # Delay immutability
//
// The Plan grammar has no operation that changes a link's propagation
// delay, by design rather than omission: the sharded executor computes
// its conservative lookahead horizon from the cut links' delays once,
// at seal time. A delay that shrank mid-run would silently invalidate
// the horizon and with it the whole conservative synchronization
// argument. Rates, by contrast, only stretch serialization times on the
// owning shard and are freely renegotiable.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Policy selects what happens to packets already inside a link at the
// moment it goes down. Packets in serialization or propagation complete
// under either policy: their bits are on the wire.
type Policy int

const (
	// Drain keeps the queued packets: they transmit and arrive normally,
	// only new arrivals are dropped while the link is down. Models an
	// interface that stops accepting but finishes its backlog.
	Drain Policy = iota
	// Flush discards the queued packets immediately through the link's
	// Release sink. Models a line card losing its buffer at failure.
	Flush
)

func (p Policy) String() string {
	if p == Flush {
		return "flush"
	}
	return "drain"
}

// Op is the kind of a timed fault action.
type Op int

const (
	// Down takes the link out of service: every packet offered while
	// down is dropped through the Release sink (and counted in the
	// link's FaultDrops).
	Down Op = iota
	// Up restores a downed link.
	Up
	// SetRate renegotiates the link's transmission rate to Event.Rate.
	// Packets already serializing keep their old departure time.
	SetRate
)

// Event is one timed fault action against one link.
type Event struct {
	// At is the simulated time the action fires, in seconds.
	At float64
	// Link identifies the affected link.
	Link topology.LinkID
	// Op is the action kind.
	Op Op
	// Rate is the renegotiated rate in bytes/second (SetRate only).
	Rate float64
	// Policy picks the fate of queued packets (Down only).
	Policy Policy
}

// GE is a per-link Gilbert–Elliott bursty loss process: a two-state
// Markov chain advanced once per packet offered to the link, dropping
// with LossGood probability in the good state and LossBad in the bad
// state. The chain starts good.
type GE struct {
	// Link identifies the affected link.
	Link topology.LinkID
	// MeanGood and MeanBad are the mean state sojourn times in packets
	// (>= 1); the per-packet transition probabilities are their
	// reciprocals.
	MeanGood, MeanBad float64
	// LossGood and LossBad are the per-packet drop probabilities in each
	// state, in [0, 1]. LossGood is usually 0.
	LossGood, LossBad float64
}

// StationaryBad returns the stationary probability of the bad state:
// with transition probabilities 1/MeanGood and 1/MeanBad, a fraction
// MeanBad/(MeanGood+MeanBad) of packets see the chain in the bad state.
func (g GE) StationaryBad() float64 { return g.MeanBad / (g.MeanGood + g.MeanBad) }

// StationaryLoss returns the analytic long-run packet loss rate of the
// process: the state-occupancy-weighted drop probability.
func (g GE) StationaryLoss() float64 {
	pb := g.StationaryBad()
	return (1-pb)*g.LossGood + pb*g.LossBad
}

// Plan is a declarative fault schedule: timed events plus per-link loss
// processes. A zero Plan is valid and does nothing. Plans are pure data
// — reusable across runs and executors — and are bound to a simulation
// by Arm.
type Plan struct {
	// Seed derives the per-link RNG streams of the loss processes (see
	// LinkSeed). Two runs arming the same plan draw identical lotteries.
	Seed uint64
	// Events are the timed actions, applied in (At, declaration) order.
	Events []Event
	// Losses are the per-link Gilbert–Elliott processes, at most one per
	// link, active for the whole run.
	Losses []GE

	// checked is one more than the link count the last Validate accepted
	// the plan for, 0 when that Validate failed or a builder method has
	// changed the plan since. Arm validates only a plan not checked for
	// its host. Edit Events and Losses directly only before validating.
	checked int
}

// Flap appends a Down at downAt and the matching Up at upAt.
func (p *Plan) Flap(link topology.LinkID, downAt, upAt float64, policy Policy) *Plan {
	p.checked = 0
	p.Events = append(p.Events,
		Event{At: downAt, Link: link, Op: Down, Policy: policy},
		Event{At: upAt, Link: link, Op: Up})
	return p
}

// Squeeze appends a SetRate to rate at from and the restoring SetRate
// back to restore at until.
func (p *Plan) Squeeze(link topology.LinkID, from, until, rate, restore float64) *Plan {
	p.checked = 0
	p.Events = append(p.Events,
		Event{At: from, Link: link, Op: SetRate, Rate: rate},
		Event{At: until, Link: link, Op: SetRate, Rate: restore})
	return p
}

// Burst appends a Gilbert–Elliott loss process on the link.
func (p *Plan) Burst(link topology.LinkID, meanGood, meanBad, lossBad float64) *Plan {
	p.checked = 0
	p.Losses = append(p.Losses, GE{Link: link, MeanGood: meanGood, MeanBad: meanBad, LossBad: lossBad})
	return p
}

// Validate checks the plan against a topology with the given number of
// links: ids in range, non-negative times, positive renegotiated rates,
// well-formed loss processes, and strict Down/Up alternation per link.
// Note what is absent: no event kind can change a propagation delay —
// delays are immutable by design (see the package comment), so a valid
// plan can never invalidate the sharded executor's lookahead horizon.
func (p *Plan) Validate(links int) error {
	err := p.validate(links)
	checked := 0
	if err == nil {
		checked = links + 1
	}
	// Stored only on a change, so runs re-validating a shared plan
	// concurrently only read it.
	if p.checked != checked {
		p.checked = checked
	}
	return err
}

func (p *Plan) validate(links int) error {
	byLink := map[topology.LinkID][]Event{}
	for i, ev := range p.Events {
		if int(ev.Link) >= links || ev.Link < 0 {
			return fmt.Errorf("fault: event %d: link %d out of range (topology has %d)", i, ev.Link, links)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative time %v", i, ev.At)
		}
		switch ev.Op {
		case Down, Up:
			byLink[ev.Link] = append(byLink[ev.Link], ev)
		case SetRate:
			if ev.Rate <= 0 {
				return fmt.Errorf("fault: event %d: renegotiated rate %v must be positive", i, ev.Rate)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown op %d", i, ev.Op)
		}
	}
	for link, evs := range byLink {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
		down := false
		for _, ev := range evs {
			if (ev.Op == Down) == down {
				state := "up"
				if down {
					state = "down"
				}
				return fmt.Errorf("fault: link %d: %v at t=%v while already %s (Down/Up must alternate)", link, ev.Op, ev.At, state)
			}
			down = ev.Op == Down
		}
	}
	seen := map[topology.LinkID]bool{}
	for i, g := range p.Losses {
		if int(g.Link) >= links || g.Link < 0 {
			return fmt.Errorf("fault: loss %d: link %d out of range (topology has %d)", i, g.Link, links)
		}
		if seen[g.Link] {
			return fmt.Errorf("fault: loss %d: link %d already has a loss process", i, g.Link)
		}
		seen[g.Link] = true
		if g.MeanGood < 1 || g.MeanBad < 1 {
			return fmt.Errorf("fault: loss %d: mean sojourns (%v, %v) must be >= 1 packet", i, g.MeanGood, g.MeanBad)
		}
		if g.LossGood < 0 || g.LossGood > 1 || g.LossBad < 0 || g.LossBad > 1 {
			return fmt.Errorf("fault: loss %d: drop probabilities (%v, %v) outside [0, 1]", i, g.LossGood, g.LossBad)
		}
	}
	return nil
}

// Host is the simulation surface a plan arms against. Both engines
// satisfy it: *topology.Network directly, *shard.Cluster after
// Partition.
type Host interface {
	// Links returns the number of links in the topology.
	Links() int
	// Link returns the materialized link behind an id.
	Link(id topology.LinkID) *netsim.Link
	// LinkSched returns the scheduler that owns the link — where its
	// Send path executes and where fault events against it must fire.
	LinkSched(id topology.LinkID) *des.Scheduler
}

// TracedHost is the optional observability extension of Host: a host
// that can name the event tracer of the domain owning a link. Arm uses
// it (when implemented and the tracer is non-nil) to emit fault
// transitions — EvFaultDown, EvFaultUp, EvFaultRate — into the owning
// shard's ring, keeping emission single-threaded on the sharded engine.
// Both engines implement it; with tracing off the tracer is nil and
// every emission is a nil-sink no-op.
type TracedHost interface {
	LinkTracer(id topology.LinkID) *obs.Tracer
}

// LinkSeed derives the dedicated RNG stream seed of one link's loss
// process from the plan seed, with the same avalanche mixing the
// topology layer uses for per-flow jitter streams: links with adjacent
// ids get statistically independent streams.
func LinkSeed(seed uint64, link topology.LinkID) uint64 {
	return seed ^ (uint64(link)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
}

// linkCtl is the armed per-link fault state: the Fault hook installed
// on the link closes over it. It is only ever touched from the link's
// owning scheduler.
type linkCtl struct {
	link  *netsim.Link
	id    topology.LinkID
	trace *obs.Tracer
	down  bool

	ge    bool
	inBad bool
	pGB   float64 // good -> bad per-packet transition probability
	pBG   float64 // bad -> good
	lossG float64
	lossB float64
	rnd   rng.RNG
}

// fault is the netsim.Link Fault hook: drop everything while down, then
// run the Gilbert–Elliott lottery. The chain advances once per offered
// packet (state first, then the drop draw), so the stationary packet
// loss rate is exactly the state-weighted drop probability.
func (c *linkCtl) fault(*netsim.Packet) bool {
	if c.down {
		return true
	}
	if !c.ge {
		return false
	}
	if c.inBad {
		if c.rnd.Float64() < c.pBG {
			c.inBad = false
		}
	} else {
		if c.rnd.Float64() < c.pGB {
			c.inBad = true
		}
	}
	loss := c.lossG
	if c.inBad {
		loss = c.lossB
	}
	return loss > 0 && c.rnd.Float64() < loss
}

func (c *linkCtl) apply(ev Event) {
	switch ev.Op {
	case Down:
		c.down = true
		if ev.Policy == Flush {
			c.link.FlushQueue()
		}
		c.trace.Emit(ev.At, obs.EvFaultDown, -1, int32(c.id), float64(ev.Policy))
	case Up:
		c.down = false
		c.trace.Emit(ev.At, obs.EvFaultUp, -1, int32(c.id), 0)
	case SetRate:
		c.link.SetRate(ev.Rate)
		c.trace.Emit(ev.At, obs.EvFaultRate, -1, int32(c.id), ev.Rate)
	}
}

// armedEvent is one scheduled plan event held for checkpointing: the
// scheduler it fired on, the bound closure, and the live timer.
type armedEvent struct {
	sched *des.Scheduler
	fn    des.Event
	tm    des.Timer
}

// Armed is the run-time handle Arm returns: the scheduled events in
// plan order and the per-link fault controls in link-id order. A nil
// Armed (from arming a nil plan) is valid and saves as empty.
type Armed struct {
	events []armedEvent
	ctls   []*linkCtl
}

// Arm validates the plan against the host, unless Validate last
// accepted it for the host's link count, and schedules every event on
// the scheduler owning its link, installing Fault hooks on the links
// that need one (outages and loss processes; pure rate renegotiation
// does not inspect packets). Call it after the topology is frozen —
// links materialized — and before simulated time advances, in a fixed
// position of the setup sequence: armed events carry the arming-time
// scheduling key, which is how they keep a stable order against
// same-instant runtime events on every executor. The returned handle
// exposes the armed state to the checkpoint layer; callers that never
// snapshot may discard it.
func Arm(h Host, p *Plan) (*Armed, error) {
	if p == nil {
		return nil, nil
	}
	if p.checked != h.Links()+1 {
		if err := p.Validate(h.Links()); err != nil {
			return nil, err
		}
	}
	th, _ := h.(TracedHost)
	a := &Armed{}
	ctls := map[topology.LinkID]*linkCtl{}
	hook := func(id topology.LinkID) *linkCtl {
		c := ctls[id]
		if c == nil {
			c = &linkCtl{link: h.Link(id), id: id}
			if th != nil {
				c.trace = th.LinkTracer(id)
			}
			c.link.Fault = c.fault
			ctls[id] = c
			a.ctls = append(a.ctls, c)
		}
		return c
	}
	for _, g := range p.Losses {
		c := hook(g.Link)
		c.ge = true
		c.pGB = 1 / g.MeanGood
		c.pBG = 1 / g.MeanBad
		c.lossG = g.LossGood
		c.lossB = g.LossBad
		c.rnd = *rng.New(LinkSeed(p.Seed, g.Link))
	}
	for _, ev := range p.Events {
		var fn des.Event
		if ev.Op == SetRate && ctls[ev.Link] == nil {
			// Rate renegotiation needs no packet inspection: apply
			// straight to the link, no hook installed.
			l := h.Link(ev.Link)
			var tr *obs.Tracer
			if th != nil {
				tr = th.LinkTracer(ev.Link)
			}
			ev := ev
			fn = func() {
				l.SetRate(ev.Rate)
				tr.Emit(ev.At, obs.EvFaultRate, -1, int32(ev.Link), ev.Rate)
			}
		} else {
			c := hook(ev.Link)
			ev := ev
			fn = func() { c.apply(ev) }
		}
		sched := h.LinkSched(ev.Link)
		a.events = append(a.events, armedEvent{sched: sched, fn: fn, tm: sched.At(ev.At, fn)})
	}
	sort.Slice(a.ctls, func(i, j int) bool { return a.ctls[i].id < a.ctls[j].id })
	return a, nil
}
