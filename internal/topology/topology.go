// Package topology assembles the netsim primitives (links, queues,
// endpoints) into packet-level network graphs: nodes connected by
// directed links, per-flow static source routes across any number of
// congested hops, packet freelists, and per-flow round-trip accounting.
// The paper's dumbbell is the two-node special case (NewDumbbell);
// parking-lot chains, multi-bottleneck paths and heterogeneous-RTT
// meshes are built from the same pieces.
//
// Forwarding model: a flow's forward route is an ordered chain of link
// IDs. SendForward injects the packet at the first hop; each link egress
// hands the packet to the network, which either forwards it into the
// next link's queue or — past the last hop — delivers it to the flow's
// receiver after the flow's extra forward delay. Flows without a
// receiver sink their packets at route end (cross traffic).
//
// Reverse model: by default the reverse path is uncongested and modeled
// as a pure per-flow delay (with optional jitter), as in the paper's
// experiments. A flow may instead carry a routed reverse path
// (SetReverseRoute, or SetDefaultReverseRoute for every flow at once):
// feedback and acknowledgment packets are then forwarded hop by hop
// through real links and queues — they can be queued behind competing
// traffic, delayed by serialization, and dropped — before the flow's
// remaining reverse delay returns them to the sender. MirrorReverse
// builds the routed counterpart of a forward route (one reverse link
// per forward hop, same rate and delay) so the mirrored-reverse default
// is one declaration.
//
// Scheduling domains: a network runs on one or more domains (Domain),
// each with its own scheduler, packet freelist, pending deliveries and
// tracer. Every node belongs to one domain and a link to the domain of
// its source node, so a packet is always handled by the domain of the
// node it has reached, and a flow's sender and receiver live in the
// domains of its route's first and last nodes. A network built with New
// is one domain. The space-parallel executor (internal/shard) declares a
// graph, splits it into several domains with Place and runs each on its
// own scheduler; the graph and the flow table stay shared, and the only
// traffic between domains is what it carries itself: packets crossing a
// cut link (netsim.Link.Handoff) and pure-delay reverse packets whose
// sender lives elsewhere (Domain.Remote). The receiving domain holds
// each as a pending delivery (Domain.Accept).
//
// Each domain owns its freelist and tracks issue/return counts, so tests
// can assert the leak invariant: every packet a freelist issued is
// either back in a pool or demonstrably inside the network (queued,
// serializing, propagating, or pending delivery).
package topology

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
)

// NodeID identifies a node in the graph.
type NodeID int

// LinkID identifies a directed link in the graph.
type LinkID int

// linkSpec is a declared link: its end nodes and the parameters its
// netsim.Link is built with, once the owning domain — and therefore the
// link's scheduler — is known.
type linkSpec struct {
	from, to    NodeID
	rate, delay float64
	queue       netsim.Queue
}

// flowState is the per-flow routing entry: the forward route, the
// optional routed reverse path, the terminal delays, and the endpoints.
type flowState struct {
	route []*netsim.Link
	// revRoute, when non-empty, carries the flow's reverse packets hop
	// by hop through real queues; revDelay then becomes the remaining
	// pure delay after the last reverse hop. Empty keeps the pure-delay
	// reverse path (length, not nil-ness, is the discriminator: pooled
	// records recycle their slices at zero length).
	revRoute  []*netsim.Link
	fwdExtra  float64
	revDelay  float64
	sender    netsim.Endpoint
	receiver  netsim.Endpoint
	delivered int64
	// jitter is the flow's private reverse-jitter stream, seeded from
	// (network jitter seed, flow id) at attach time. Per-flow streams —
	// rather than one network-wide RNG consumed in global event order —
	// make each flow's jitter sequence independent of event interleaving
	// across flows, which is what lets a space-parallel execution of the
	// same graph reproduce the single-domain run bit for bit.
	jitter rng.RNG
	// snd and rcv are the domains of the forward route's first and last
	// nodes: where the sender and the receiver live.
	snd, rcv int
}

// DeliveryKind names what a pending delivery hands its packet to when
// its timer fires.
type DeliveryKind uint8

const (
	// ToReceiver hands the packet to its flow's receiver after the
	// flow's extra forward delay.
	ToReceiver DeliveryKind = iota
	// ToSender hands the packet to its flow's sender after the
	// remaining reverse delay.
	ToSender
	// ToNode hands the packet to the node a cut link ends at (Arrive):
	// a packet that crossed over from another domain.
	ToNode
)

// delivery is one pending hand-off of a packet after a delay: to an
// endpoint after a pure delay (per-flow forward extra or reverse path),
// or to a node after a cut link's propagation delay. Deliveries are
// recycled through their domain's pool; the bound run callback is
// allocated once per delivery object, not per packet. Live deliveries
// are indexed in the domain's registry (idx is the registry position,
// maintained by swap-remove) so a checkpoint can enumerate them; kind
// and tm, the pending hand-off timer, are what a restore needs to
// re-create the delivery.
type delivery struct {
	d    *Domain
	to   netsim.Endpoint
	p    *netsim.Packet
	run  des.Event
	tm   des.Timer
	idx  int32
	kind DeliveryKind
}

func (dv *delivery) deliver() {
	d := dv.d
	last := len(d.liveDel) - 1
	d.liveDel[dv.idx] = d.liveDel[last]
	d.liveDel[dv.idx].idx = dv.idx
	d.liveDel[last] = nil
	d.liveDel = d.liveDel[:last]
	to, p, kind := dv.to, dv.p, dv.kind
	dv.to, dv.p = nil, nil
	d.dpool = append(d.dpool, dv)
	if kind == ToNode {
		d.Arrive(p)
		return
	}
	to.Receive(p)
	d.PutPacket(p)
}

// Domain is one scheduling domain of a network: a scheduler, the packet
// freelist and issue/return ledger of the packets it handles, its
// pending deliveries, its flow-state pool and its event tracer. It
// implements netsim.Network, so protocol endpoints constructed on it
// draw packets from and send through their own domain. Nothing a domain
// does while its scheduler runs writes another domain's state, which is
// what lets the sharded executor run domains on concurrent goroutines.
type Domain struct {
	n     *Network
	id    int
	sched *des.Scheduler

	// Trace, when set, is the domain's event tracer. Protocol endpoints
	// and the fault layer discover it through netsim.Traced; nil (the
	// default) keeps every tracing hook a nil-sink. Cleared by Reset.
	Trace *obs.Tracer

	// Remote hands a pure-delay reverse packet to its flow's sender in
	// domain to, where it must be delivered at simulated time at, and
	// takes over p (the sharded executor copies it into a cross-domain
	// message and recycles it here; the sender's domain Accepts it). The
	// sharded executor sets it on every domain it places; a
	// single-domain network never calls it.
	Remote func(to int, p *netsim.Packet, at float64)

	// links are the links this domain owns (source node inside it), for
	// InNetwork accounting.
	links []*netsim.Link

	// pool, dpool and fsPool are the freelists of packets, deliveries
	// and flow-state records. Delivery and flow-state pops clear the slot
	// they vacate: a record still in use when a run ends must not stay
	// reachable from the pool, nor the endpoints it points to. Packets
	// hold no pointers, so their pool skips that store on the hot path.
	pool   []*netsim.Packet
	dpool  []*delivery
	fsPool []*flowState
	// liveDel indexes the in-flight deliveries (swap-removed as they
	// fire) so a checkpoint can enumerate them without walking the
	// scheduler.
	liveDel []*delivery

	issued   int64
	returned int64
	// flowCount counts the attached flows whose sender lives here.
	flowCount int

	arriveFn func(*netsim.Packet)
	putFn    func(*netsim.Packet)
}

var (
	_ netsim.Network = (*Domain)(nil)
	_ netsim.Network = (*Network)(nil)
)

// Network is a packet-level network graph implementing netsim.Network.
// Build it with New, AddNode and AddLink (or AdoptLink for an
// externally constructed link), declare per-flow routes with SetRoute
// or a default route with SetDefaultRoute, then attach protocol
// endpoints with AttachFlow.
//
// The zero Network is an empty graph with no domain yet: AddLink only
// declares links, and Place builds them once it splits the graph into
// domains. The sharded executor embeds one that way.
type Network struct {
	nodes   []string
	nodeDom []int
	specs   []linkSpec
	// links holds the built links, nil until the network is placed.
	links []*netsim.Link

	// doms are the placed domains (empty before Place). Reset keeps the
	// Domain objects in the backing array, so a pooled network reuses
	// their freelists on its next placement.
	doms []*Domain
	// fixed marks a network built with New: it keeps its one domain
	// across Reset, where a zero-value network is un-placed.
	fixed bool

	// flows is indexed by flow id (nil = unattached). A dense slice
	// instead of a map for two reasons: lookups sit on the per-packet hot
	// path, and the churn engine (internal/arrivals) attaches and
	// detaches flows at simulation time — after ReserveFlows, an attach
	// stores a pointer into a preallocated slot instead of growing the
	// table, so concurrently running domains never see it move.
	flows []*flowState

	// routes and revRoutes are allocated lazily on the first SetRoute /
	// SetReverseRoute (nil map reads are legal), so the zero Network is
	// ready to use and purely-forward networks pay nothing for the
	// reverse subsystem.
	routes       map[int][]LinkID
	defaultRoute []LinkID
	// revRoutes and defaultRevRoute are the routed reverse counterparts
	// of routes and defaultRoute. A flow with neither keeps the
	// pure-delay reverse path.
	revRoutes       map[int][]LinkID
	defaultRevRoute []LinkID

	// ReverseJitter, when positive, scales each reverse-path delivery
	// delay by a uniform factor in [1-ReverseJitter, 1+ReverseJitter].
	// Real acknowledgment streams jitter at least this much; a perfectly
	// periodic ack clock in a deterministic simulator otherwise slots
	// arrivals into queue vacancies with unrealistic precision. Each flow
	// draws from its own stream seeded by FlowJitterSeed(jitterSeed,
	// flow), created when the flow attaches.
	ReverseJitter float64
	jitterSeed    uint64

	// Per-flow in-network packet accounting for the churn engine's
	// reclamation decisions (WatchFlows): lcCount[flow-lcLo] is the
	// number of freelist packets the flow currently has inside the
	// simulator, and lcQuiet fires whenever a discharge empties a watched
	// flow's account. All three stay zero-cost nil/empty when unused.
	// Only a single-domain network watches flows.
	lcLo    int
	lcCount []int32
	lcQuiet func(flow int)
}

// New returns an empty network graph with one domain on the scheduler.
func New(sched *des.Scheduler) *Network {
	if sched == nil {
		panic("topology: nil scheduler")
	}
	n := &Network{fixed: true}
	n.Place(nil, []*des.Scheduler{sched})
	return n
}

// Place splits the declared graph into one domain per scheduler: node v
// joins domain nodeDomain[v] (a nil nodeDomain puts every node in
// domain 0), and every declared link is built on the scheduler of its
// source node's domain. Links added afterwards are built at once, which
// a network split into several domains rejects. Call it after the last
// AddLink and before any flow attaches; a network built with New is
// placed at construction.
func (n *Network) Place(nodeDomain []int, scheds []*des.Scheduler) {
	if len(n.doms) > 0 {
		panic("topology: Place on a placed network")
	}
	if len(scheds) == 0 {
		panic("topology: Place needs at least one scheduler")
	}
	if nodeDomain != nil && len(nodeDomain) != len(n.nodes) {
		panic("topology: Place needs one domain per node")
	}
	for i, s := range scheds {
		if s == nil {
			panic("topology: nil scheduler")
		}
		if i < cap(n.doms) {
			n.doms = n.doms[:i+1]
		} else {
			n.doms = append(n.doms, nil)
		}
		d := n.doms[i]
		if d == nil {
			d = &Domain{n: n}
			d.arriveFn = d.Arrive
			d.putFn = d.PutPacket
			n.doms[i] = d
		}
		d.id = i
		d.sched = s
	}
	for v, k := range nodeDomain {
		if k < 0 || k >= len(scheds) {
			panic(fmt.Sprintf("topology: node %d placed in unknown domain %d", v, k))
		}
		n.nodeDom[v] = k
	}
	for id := range n.specs {
		n.build(LinkID(id))
	}
}

// build materializes a declared link on its owning domain.
func (n *Network) build(id LinkID) {
	sp := &n.specs[id]
	d := n.owner(id)
	n.links[id] = netsim.NewLink(d.sched, sp.rate, sp.delay, sp.queue)
	d.own(n.links[id])
}

// own wires a link's delivery and drop sinks into the domain.
func (d *Domain) own(l *netsim.Link) {
	l.Deliver = d.arriveFn
	l.Release = d.putFn
	d.links = append(d.links, l)
}

// owner returns the domain of a link's source node.
func (n *Network) owner(id LinkID) *Domain { return n.doms[n.nodeDom[n.specs[id].from]] }

// Domain returns placed domain i.
func (n *Network) Domain(i int) *Domain { return n.doms[i] }

// Reset empties the graph — nodes, links, routes, flows, jitter and
// freelist accounting — while keeping every domain's packet pool,
// delivery pool and flow-state pool, so a pooled network rebuilds its
// next topology in place instead of reallocating (see the run arena in
// internal/experiments). A network built with New keeps its one domain;
// a zero-value network is un-placed, ready for its next Place. Packets
// still referenced by a previous run's pending events are abandoned to
// the garbage collector; reset the schedulers alongside the network.
func (n *Network) Reset() {
	for id, fs := range n.flows {
		if fs == nil {
			continue
		}
		n.doms[fs.snd].recycle(fs)
		n.flows[id] = nil
	}
	n.flows = n.flows[:0]
	n.nodes = n.nodes[:0]
	n.nodeDom = n.nodeDom[:0]
	clear(n.specs)
	n.specs = n.specs[:0]
	clear(n.links)
	n.links = n.links[:0]
	n.lcLo = 0
	n.lcCount = n.lcCount[:0]
	n.lcQuiet = nil
	clear(n.routes)
	clear(n.revRoutes)
	n.defaultRoute = nil
	n.defaultRevRoute = nil
	n.ReverseJitter = 0
	n.jitterSeed = 0
	for _, d := range n.doms {
		clear(d.links)
		d.links = d.links[:0]
		clear(d.liveDel)
		d.liveDel = d.liveDel[:0]
		d.issued, d.returned = 0, 0
		d.flowCount = 0
		d.Trace = nil
		d.Remote = nil
	}
	if !n.fixed {
		n.doms = n.doms[:0]
	}
}

// Tracer implements netsim.Traced for the network's first domain — the
// whole network when it was built with New.
func (n *Network) Tracer() *obs.Tracer { return n.doms[0].Trace }

// Tracer implements netsim.Traced: it returns the domain's event
// tracer, nil when tracing is off.
func (d *Domain) Tracer() *obs.Tracer { return d.Trace }

// Sched returns the domain's scheduler (for endpoint timers and start
// events).
func (d *Domain) Sched() *des.Scheduler { return d.sched }

// AttachTracers installs a bounded event tracer of the given capacity on
// every domain. Call it after Place and before endpoints are
// constructed — tfrc/tcp senders resolve their domain's tracer once, at
// construction. Each domain's ring is only written while its own
// scheduler runs, so emission stays unsynchronized; the per-domain
// streams merge deterministically through obs.MergeEvents at collection
// time. cap <= 0 leaves every tracer nil (tracing off).
func (n *Network) AttachTracers(cap int) {
	for _, d := range n.doms {
		d.Trace = obs.NewTracer(cap, d.id)
	}
}

// Tracers returns the domains' tracers in domain order (nil entries
// when tracing is off).
func (n *Network) Tracers() []*obs.Tracer {
	out := make([]*obs.Tracer, len(n.doms))
	for i, d := range n.doms {
		out[i] = d.Trace
	}
	return out
}

// LinkTracer returns the tracer of the domain owning the link. It is
// the seam the fault layer uses to emit link transitions into the right
// domain's stream (fault.TracedHost).
func (n *Network) LinkTracer(id LinkID) *obs.Tracer { return n.placedOwner(id).Trace }

// AddNode adds a named node and returns its id. Nodes only anchor link
// endpoints (for route validation, placement and diagnostics); they
// hold no state. A new node joins domain 0 until Place says otherwise.
func (n *Network) AddNode(name string) NodeID {
	n.nodes = append(n.nodes, name)
	n.nodeDom = append(n.nodeDom, 0)
	return NodeID(len(n.nodes) - 1)
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// NodeName returns the name given to AddNode.
func (n *Network) NodeName(id NodeID) string { return n.nodes[id] }

func (n *Network) checkNodes(from, to NodeID) {
	if int(from) >= len(n.nodes) || int(to) >= len(n.nodes) || from < 0 || to < 0 {
		panic("topology: link endpoint node out of range")
	}
}

// AddLink declares a directed link from one node to another with the
// given rate (bytes/second), propagation delay and queue. On a placed
// network it is built at once, its delivery and drop sinks wired into
// its source node's domain; otherwise Place builds it.
func (n *Network) AddLink(from, to NodeID, rate, delay float64, queue netsim.Queue) LinkID {
	n.checkNodes(from, to)
	if queue == nil {
		panic("topology: nil queue")
	}
	if rate <= 0 || delay < 0 {
		panic("topology: invalid link rate/delay")
	}
	if len(n.doms) > 1 {
		panic("topology: AddLink after Place split the graph")
	}
	n.specs = append(n.specs, linkSpec{from: from, to: to, rate: rate, delay: delay, queue: queue})
	n.links = append(n.links, nil)
	id := LinkID(len(n.specs) - 1)
	if len(n.doms) > 0 {
		n.build(id)
	}
	return id
}

// AdoptLink wires an externally constructed link into a single-domain
// graph as a directed edge. The network takes over the link's Deliver
// and Release sinks.
func (n *Network) AdoptLink(l *netsim.Link, from, to NodeID) LinkID {
	if l == nil {
		panic("topology: nil link")
	}
	n.checkNodes(from, to)
	if len(n.doms) != 1 {
		panic("topology: AdoptLink needs a single-domain network")
	}
	n.specs = append(n.specs, linkSpec{from: from, to: to, rate: l.Rate, delay: l.Delay, queue: l.Queue()})
	n.links = append(n.links, l)
	n.doms[0].own(l)
	return LinkID(len(n.links) - 1)
}

// Link returns the link behind an id (for inspection in tests and
// experiments); nil until the network is placed.
func (n *Network) Link(id LinkID) *netsim.Link { return n.links[id] }

// Links returns the number of declared links.
func (n *Network) Links() int { return len(n.specs) }

// Edge returns a declared link's end nodes and propagation delay —
// available before Place, which is what a partitioner reads.
func (n *Network) Edge(id LinkID) (from, to NodeID, delay float64) {
	sp := &n.specs[id]
	return sp.from, sp.to, sp.delay
}

// LinkSched returns the scheduler that drives the link's events: its
// owning domain's. Fault plans (internal/fault) arm their timed events
// through this seam so each event fires on the scheduler that
// serializes the link's packets.
func (n *Network) LinkSched(id LinkID) *des.Scheduler { return n.placedOwner(id).sched }

func (n *Network) placedOwner(id LinkID) *Domain {
	if len(n.doms) == 0 {
		panic("topology: network not placed")
	}
	return n.owner(id)
}

// checkRoute validates that hops form a contiguous directed path.
func (n *Network) checkRoute(hops []LinkID) {
	if len(hops) == 0 {
		panic("topology: empty route")
	}
	for i, h := range hops {
		if int(h) >= len(n.specs) || h < 0 {
			panic(fmt.Sprintf("topology: route hop %d: unknown link %d", i, h))
		}
		if i > 0 && n.specs[h].from != n.specs[hops[i-1]].to {
			panic(fmt.Sprintf("topology: route hop %d: link %d does not start where link %d ends",
				i, h, hops[i-1]))
		}
	}
}

// SetRoute declares the static source route for a flow id, to be used
// by a later AttachFlow for the same id.
func (n *Network) SetRoute(flow int, hops ...LinkID) {
	n.checkRoute(hops)
	if n.routes == nil {
		n.routes = map[int][]LinkID{}
	}
	n.routes[flow] = append([]LinkID(nil), hops...)
}

// SetDefaultRoute declares the route used by AttachFlow for flows with
// no per-flow SetRoute entry, and makes the route's first link the sink
// for forward packets of entirely unattached flows (cross traffic).
func (n *Network) SetDefaultRoute(hops ...LinkID) {
	n.checkRoute(hops)
	n.defaultRoute = append([]LinkID(nil), hops...)
}

// SetReverseRoute declares the routed reverse path for a flow id, to be
// used by a later AttachFlow for the same id: the flow's reverse
// packets traverse these links hop by hop — queued, delayed, and
// possibly dropped — before the flow's remaining reverse delay returns
// them to the sender. The route must run from the forward route's last
// node back to its first (checked at attach time).
func (n *Network) SetReverseRoute(flow int, hops ...LinkID) {
	n.checkRoute(hops)
	if n.revRoutes == nil {
		n.revRoutes = map[int][]LinkID{}
	}
	n.revRoutes[flow] = append([]LinkID(nil), hops...)
}

// SetDefaultReverseRoute declares the routed reverse path used by
// AttachFlow for flows with no per-flow SetReverseRoute entry. Without
// it (the default), such flows keep the uncongested pure-delay reverse
// path.
func (n *Network) SetDefaultReverseRoute(hops ...LinkID) {
	n.checkRoute(hops)
	n.defaultRevRoute = append([]LinkID(nil), hops...)
}

// MirrorReverse builds the routed reverse counterpart of a forward
// route: for each forward hop, in reverse order, a new link from the
// hop's head node back to its tail, copying the forward twin's rate and
// propagation delay. queue selects the queue of reverse hop i (counting
// from the receiver side); a nil queue func — or a nil result — gives
// that hop an unbounded lossless FIFO, i.e. the pure-delay reverse path
// plus serialization. The returned hops are ready for SetReverseRoute
// or SetDefaultReverseRoute.
func (n *Network) MirrorReverse(fwd []LinkID, queue func(hop int) netsim.Queue) []LinkID {
	n.checkRoute(fwd)
	rev := make([]LinkID, 0, len(fwd))
	for i := len(fwd) - 1; i >= 0; i-- {
		var q netsim.Queue
		if queue != nil {
			q = queue(len(rev))
		}
		if q == nil {
			q = netsim.NewUnbounded()
		}
		sp := n.specs[fwd[i]]
		rev = append(rev, n.AddLink(sp.to, sp.from, sp.rate, sp.delay, q))
	}
	return rev
}

// checkReverse validates that a reverse route connects the forward
// route's end node back to its start node.
func (n *Network) checkReverse(fwd, rev []LinkID) {
	n.checkRoute(rev)
	if from, end := n.specs[rev[0]].from, n.specs[fwd[len(fwd)-1]].to; from != end {
		panic(fmt.Sprintf("topology: reverse route starts at node %d, want the forward route's last node %d",
			from, end))
	}
	if to, start := n.specs[rev[len(rev)-1]].to, n.specs[fwd[0]].from; to != start {
		panic(fmt.Sprintf("topology: reverse route ends at node %d, want the forward route's first node %d",
			to, start))
	}
}

// SetReverseJitter enables reverse-path delay jitter with the given
// fraction (0 <= j < 1) and seed. Each flow attached afterwards draws
// from its own stream seeded by FlowJitterSeed(seed, flow), so a flow's
// jitter sequence depends only on its own reverse traffic — not on how
// its packets interleave with other flows'. Call it before attaching
// flows.
func (n *Network) SetReverseJitter(j float64, seed uint64) {
	if j < 0 || j >= 1 {
		panic("topology: reverse jitter outside [0,1)")
	}
	if n.attached() > 0 {
		panic("topology: SetReverseJitter after flows attached")
	}
	n.ReverseJitter = j
	n.jitterSeed = seed
}

// FlowJitterSeed derives the seed of a flow's private reverse-jitter
// stream from the network-wide jitter seed.
func FlowJitterSeed(seed uint64, flow int) uint64 {
	return seed ^ (uint64(flow)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
}

// FlowRoute returns the forward route a flow attaches on: its SetRoute
// entry, else the default route.
func (n *Network) FlowRoute(flow int) []LinkID {
	hops, ok := n.routes[flow]
	if !ok {
		hops = n.defaultRoute
	}
	if len(hops) == 0 {
		panic(fmt.Sprintf("topology: no route for flow %d (SetRoute or SetDefaultRoute first)", flow))
	}
	return hops
}

// RouteDomains validates a route and returns the domains of its first
// and last nodes: where a sender and a receiver over it live.
func (n *Network) RouteDomains(hops []LinkID) (snd, rcv int) {
	n.checkRoute(hops)
	return n.nodeDom[n.specs[hops[0]].from], n.nodeDom[n.specs[hops[len(hops)-1]].to]
}

// AttachFlow implements netsim.Network: it registers a flow's endpoints
// and path delays on the flow's declared route (SetRoute), falling back
// to the default route. fwdExtra is the one-way delay from the last
// routed link's egress to the receiver. revDelay is the full uncongested
// return delay from receiver to sender — unless the flow has a routed
// reverse path (SetReverseRoute or SetDefaultReverseRoute), in which
// case revDelay is the remaining delay after the last reverse hop.
func (n *Network) AttachFlow(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	hops := n.FlowRoute(flow)
	if sender == nil || receiver == nil {
		panic("topology: nil endpoint")
	}
	n.attach(flow, sender, receiver, hops, fwdExtra, revDelay)
}

// AttachFlow implements netsim.Network on the domain's network: flow
// tables are network-wide, freelists per domain.
func (d *Domain) AttachFlow(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	d.n.AttachFlow(flow, sender, receiver, fwdExtra, revDelay)
}

// AttachSink registers a receiver-less flow over a route: its packets
// are recycled at route end. This is how cross traffic is carried over
// a chosen sub-path of a multi-hop graph. A sink flow has no sender to
// return packets to, so declaring a reverse route for it is rejected.
func (n *Network) AttachSink(flow int, hops ...LinkID) {
	n.attach(flow, nil, nil, hops, 0, 0)
}

func (n *Network) attach(flow int, sender, receiver netsim.Endpoint, hops []LinkID, fwdExtra, revDelay float64) {
	revHops, explicit := n.revRoutes[flow]
	if explicit && sender == nil {
		panic(fmt.Sprintf("topology: reverse route for sink flow %d (no sender to return packets to)", flow))
	}
	if !explicit && sender != nil {
		// The default reverse route covers endpoint flows only: sink
		// flows terminate at route end and never send reverse packets.
		revHops = n.defaultRevRoute
	}
	n.attachOn(flow, sender, receiver, hops, revHops, fwdExtra, revDelay)
}

// AttachFlowOn is AttachFlow with the forward and (possibly empty)
// reverse routes passed explicitly instead of resolved from the
// per-flow route maps. Run-time attaches — the churn engine's arrival
// events — use it so registering a route per arrival (a map insert per
// flow) never happens: every flow of an arrival class shares the
// class's hop slices, and steady-state attach stays allocation-free.
// It runs on the sender's domain and writes only the flow's own table
// slot and that domain's flow-state pool and count.
func (n *Network) AttachFlowOn(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []LinkID, fwdExtra, revDelay float64) {
	if sender == nil || receiver == nil {
		panic("topology: nil endpoint")
	}
	n.attachOn(flow, sender, receiver, fwdHops, revHops, fwdExtra, revDelay)
}

func (n *Network) attachOn(flow int, sender, receiver netsim.Endpoint, hops, revHops []LinkID, fwdExtra, revDelay float64) {
	if len(n.doms) == 0 {
		panic("topology: attach before Place")
	}
	if fwdExtra < 0 || revDelay < 0 {
		panic("topology: negative delay")
	}
	if flow < 0 {
		panic(fmt.Sprintf("topology: negative flow id %d", flow))
	}
	if n.flowAt(flow) != nil {
		panic(fmt.Sprintf("topology: duplicate flow id %d", flow))
	}
	snd, rcv := n.RouteDomains(hops)
	if len(revHops) > 0 {
		n.checkReverse(hops, revHops)
	}
	d := n.doms[snd]
	fs := d.getFlowState()
	for _, h := range hops {
		fs.route = append(fs.route, n.links[h])
	}
	for _, h := range revHops {
		fs.revRoute = append(fs.revRoute, n.links[h])
	}
	fs.fwdExtra = fwdExtra
	fs.revDelay = revDelay
	fs.sender = sender
	fs.receiver = receiver
	fs.snd, fs.rcv = snd, rcv
	if n.ReverseJitter > 0 {
		fs.jitter.Reseed(FlowJitterSeed(n.jitterSeed, flow))
	}
	for len(n.flows) <= flow {
		n.flows = append(n.flows, nil)
	}
	n.flows[flow] = fs
	d.flowCount++
}

// flowAt returns the flow's routing entry, nil when the id is out of
// range or currently unattached.
func (n *Network) flowAt(flow int) *flowState {
	if flow >= 0 && flow < len(n.flows) {
		return n.flows[flow]
	}
	return nil
}

// attached counts the attached flows over all domains.
func (n *Network) attached() int {
	total := 0
	for _, d := range n.doms {
		total += d.flowCount
	}
	return total
}

// ReserveFlows pre-sizes the flow table for ids [0, max): run-time
// attaches (the churn engine's arrival events) then store into an
// existing slot instead of growing the table mid-run. Idempotent;
// shrinking is not supported.
func (n *Network) ReserveFlows(max int) {
	for len(n.flows) < max {
		n.flows = append(n.flows, nil)
	}
}

// RemoteReturn returns the smallest pure-delay reverse latency, at the
// bottom of the jitter range, over the attached flows whose sender
// lives in another domain than their receiver — +Inf when there is
// none. The sharded executor folds it into its lookahead horizon.
func (n *Network) RemoteReturn() float64 {
	h := math.Inf(1)
	for _, fs := range n.flows {
		if fs != nil && fs.sender != nil && len(fs.revRoute) == 0 && fs.snd != fs.rcv {
			h = math.Min(h, fs.revDelay*(1-n.ReverseJitter))
		}
	}
	return h
}

// DetachFlow removes a flow at simulation time and recycles its routing
// record into its domain's flow-state pool, so a departed session costs
// nothing once its last packet is back in the freelist. The caller must
// only detach a quiet flow — endpoints done, their timers expired or
// cancelled, and no packets of the flow left inside the simulator;
// with WatchFlows accounting enabled the last condition is asserted.
// Detaching mutates no scheduler or ledger state, so a detach on one
// executor and none on another cannot diverge their event trajectories.
func (n *Network) DetachFlow(flow int) {
	fs := n.flowAt(flow)
	if fs == nil {
		panic(fmt.Sprintf("topology: DetachFlow on unattached flow %d", flow))
	}
	if i := flow - n.lcLo; n.lcQuiet != nil && i >= 0 && i < len(n.lcCount) && n.lcCount[i] != 0 {
		panic(fmt.Sprintf("topology: DetachFlow(%d) with %d packets still in the network", flow, n.lcCount[i]))
	}
	d := n.doms[fs.snd]
	d.recycle(fs)
	d.flowCount--
	n.flows[flow] = nil
}

// WatchFlows enables per-flow in-network packet accounting for flow ids
// in [lo, lo+count): every SendForward/SendReverse charges the packet to
// its flow, every PutPacket discharges it, and a discharge that empties
// the flow's account invokes onQuiet(flow) — the churn engine's cue to
// reclaim a finished flow the moment its last packet leaves the
// simulator. The accounting costs two bounds checks per packet on
// watched ranges and a nil check otherwise. The accounts are shared by
// every domain, so only a single-domain network may watch flows.
func (n *Network) WatchFlows(lo, count int, onQuiet func(flow int)) {
	if onQuiet == nil || count <= 0 {
		panic("topology: WatchFlows needs a callback and a positive range")
	}
	if n.lcQuiet != nil {
		panic("topology: WatchFlows called twice")
	}
	if len(n.doms) != 1 {
		panic("topology: WatchFlows needs a single-domain network")
	}
	n.lcLo = lo
	if cap(n.lcCount) < count {
		n.lcCount = make([]int32, count)
	} else {
		n.lcCount = n.lcCount[:count]
		clear(n.lcCount)
	}
	n.lcQuiet = onQuiet
}

// InFlight returns the watched flow's current in-network packet count
// (0 for flows outside the watched range or without accounting).
func (n *Network) InFlight(flow int) int {
	if i := flow - n.lcLo; n.lcQuiet != nil && i >= 0 && i < len(n.lcCount) {
		return int(n.lcCount[i])
	}
	return 0
}

func (n *Network) lcCharge(flow int) {
	if i := flow - n.lcLo; n.lcQuiet != nil && i >= 0 && i < len(n.lcCount) {
		n.lcCount[i]++
	}
}

func (n *Network) lcDischarge(flow int) {
	if i := flow - n.lcLo; n.lcQuiet != nil && i >= 0 && i < len(n.lcCount) {
		n.lcCount[i]--
		if n.lcCount[i] == 0 {
			n.lcQuiet(flow)
		} else if n.lcCount[i] < 0 {
			panic(fmt.Sprintf("topology: flow %d discharged below zero (PutPacket without a matching send)", flow))
		}
	}
}

// getFlowState recycles a flow-state record (route slices keep their
// capacity across Reset) or allocates a fresh one.
func (d *Domain) getFlowState() *flowState {
	if m := len(d.fsPool); m > 0 {
		fs := d.fsPool[m-1]
		d.fsPool[m-1] = nil
		d.fsPool = d.fsPool[:m-1]
		return fs
	}
	return &flowState{}
}

// recycle clears a flow-state record into the domain's pool. Its route
// arrays are cleared before they are truncated, so a pooled record
// keeps no link — nor, through it, a finished run — reachable.
func (d *Domain) recycle(fs *flowState) {
	clear(fs.route)
	fs.route = fs.route[:0]
	clear(fs.revRoute)
	fs.revRoute = fs.revRoute[:0]
	fs.sender, fs.receiver = nil, nil
	fs.delivered = 0
	d.fsPool = append(d.fsPool, fs)
}

// GetPacket returns a zeroed packet from the domain's freelist
// (allocating only when the pool is empty). The simulator reclaims it
// after delivery.
func (d *Domain) GetPacket() *netsim.Packet {
	d.issued++
	if m := len(d.pool); m > 0 {
		p := d.pool[m-1]
		d.pool = d.pool[:m-1]
		*p = netsim.Packet{}
		return p
	}
	return &netsim.Packet{}
}

// PutPacket returns a packet to the domain's freelist. Callers normally
// never need this — the network releases packets itself after delivery
// and on drops — but sources that abandon a packet before sending may.
func (d *Domain) PutPacket(p *netsim.Packet) {
	if p == nil {
		return
	}
	d.returned++
	d.pool = append(d.pool, p)
	if d.n.lcQuiet != nil {
		d.n.lcDischarge(int(p.Flow))
	}
}

func (d *Domain) getDelivery(kind DeliveryKind, to netsim.Endpoint, p *netsim.Packet) *delivery {
	var dv *delivery
	if m := len(d.dpool); m > 0 {
		dv = d.dpool[m-1]
		d.dpool[m-1] = nil
		d.dpool = d.dpool[:m-1]
	} else {
		dv = &delivery{d: d}
		dv.run = dv.deliver
	}
	dv.to = to
	dv.p = p
	dv.kind = kind
	dv.idx = int32(len(d.liveDel))
	d.liveDel = append(d.liveDel, dv)
	return dv
}

// SendForward implements netsim.Network: the packet enters the first
// link of its flow's route, which the sender's domain owns. Packets of
// unattached flows go to the default route's first link (and are
// recycled at its egress); only that link's domain may send them.
func (d *Domain) SendForward(p *netsim.Packet) {
	n := d.n
	if n.lcQuiet != nil {
		n.lcCharge(int(p.Flow))
	}
	p.Hop = 0
	if fs := n.flowAt(int(p.Flow)); fs != nil {
		fs.route[0].Send(p)
		return
	}
	if len(n.defaultRoute) == 0 {
		panic(fmt.Sprintf("topology: forward packet for unrouted flow %d and no default route", p.Flow))
	}
	if n.owner(n.defaultRoute[0]) != d {
		panic(fmt.Sprintf("topology: forward packet for unrouted flow %d from a domain that does not own the default route", p.Flow))
	}
	n.links[n.defaultRoute[0]].Send(p)
}

// SendReverse implements netsim.Network: the packet enters the first
// link of the flow's routed reverse path when one is declared (it may
// be queued, delayed, and dropped on the way; the path starts at the
// receiver's node, so in the receiver's domain), otherwise it reaches
// the flow's sender after the flow's reverse delay (jittered when
// enabled).
func (d *Domain) SendReverse(p *netsim.Packet) {
	n := d.n
	fs := n.flowAt(int(p.Flow))
	if fs == nil || fs.sender == nil {
		panic(fmt.Sprintf("topology: reverse packet for unknown flow %d", p.Flow))
	}
	if n.lcQuiet != nil {
		n.lcCharge(int(p.Flow))
	}
	if len(fs.revRoute) > 0 {
		p.Rev = true
		p.Hop = 0
		fs.revRoute[0].Send(p)
		return
	}
	d.returnToSender(fs, p)
}

// returnToSender schedules the packet's final hand-off to the flow's
// sender after the flow's remaining reverse delay (jittered when
// enabled) — the shared tail of the pure-delay and routed reverse
// paths. A sender in another domain gets the packet through Remote.
func (d *Domain) returnToSender(fs *flowState, p *netsim.Packet) {
	delay := fs.revDelay
	if j := d.n.ReverseJitter; j > 0 {
		delay *= 1 + j*(2*fs.jitter.Float64()-1)
	}
	if fs.snd != d.id {
		d.Remote(fs.snd, p, d.sched.Now()+delay)
		return
	}
	dv := d.getDelivery(ToSender, fs.sender, p)
	dv.tm = d.sched.After(delay, dv.run)
}

// Arrive handles a packet exiting a link at the link's head node, in
// the domain that owns that node: forward it into the next hop of its
// route — owned by the same node, so by this domain — or deliver it
// past the last hop. It is every owned link's Deliver sink, and a ToNode
// delivery hands it the packets that crossed a cut link.
func (d *Domain) Arrive(p *netsim.Packet) {
	fs := d.n.flowAt(int(p.Flow))
	if fs == nil {
		// Unattached flow (e.g. background traffic that terminates at
		// the default link): recycle silently.
		d.PutPacket(p)
		return
	}
	if p.Rev {
		if next := int(p.Hop) + 1; next < len(fs.revRoute) {
			p.Hop = int32(next)
			fs.revRoute[next].Send(p)
			return
		}
		d.returnToSender(fs, p)
		return
	}
	if next := int(p.Hop) + 1; next < len(fs.route) {
		p.Hop = int32(next)
		fs.route[next].Send(p)
		return
	}
	fs.delivered++
	if fs.receiver == nil {
		// Sink flow: the route end is the destination.
		d.PutPacket(p)
		return
	}
	if fs.fwdExtra == 0 {
		fs.receiver.Receive(p)
		d.PutPacket(p)
		return
	}
	dv := d.getDelivery(ToReceiver, fs.receiver, p)
	dv.tm = d.sched.After(fs.fwdExtra, dv.run)
}

// Accept takes over a packet another domain let go of — across a cut
// link (ToNode) or through Remote (ToSender) — as a pending delivery:
// a copy of pkt, issued from this domain's freelist, is handed on at
// time at. origin is the other domain's clock when it let the packet
// go; it orders the hand-off among events of the same instant as on a
// single-domain engine (des.AtOrigin).
func (d *Domain) Accept(kind DeliveryKind, pkt *netsim.Packet, at, origin float64) {
	p := d.GetPacket()
	*p = *pkt
	var to netsim.Endpoint
	if kind != ToNode {
		to = d.n.flowAt(p.Flow).endpoint(kind)
	}
	dv := d.getDelivery(kind, to, p)
	dv.tm = d.sched.AtOrigin(at, origin, dv.run)
}

// endpoint returns the flow's endpoint a delivery of the given kind
// hands its packet to.
func (fs *flowState) endpoint(kind DeliveryKind) netsim.Endpoint {
	if kind == ToSender {
		return fs.sender
	}
	return fs.receiver
}

// Deliveries counts the pending deliveries of one kind over every
// domain.
func (n *Network) Deliveries(kind DeliveryKind) int {
	total := 0
	for _, d := range n.doms {
		for _, dv := range d.liveDel {
			if dv.kind == kind {
				total++
			}
		}
	}
	return total
}

// GetPacket, PutPacket, SendForward and SendReverse implement
// netsim.Network on the network's first domain — the whole network when
// it was built with New.

// GetPacket returns a zeroed packet from the first domain's freelist.
func (n *Network) GetPacket() *netsim.Packet { return n.doms[0].GetPacket() }

// PutPacket returns a packet to the first domain's freelist.
func (n *Network) PutPacket(p *netsim.Packet) { n.doms[0].PutPacket(p) }

// SendForward injects a forward packet from the first domain.
func (n *Network) SendForward(p *netsim.Packet) { n.doms[0].SendForward(p) }

// SendReverse sends a reverse packet from the first domain.
func (n *Network) SendReverse(p *netsim.Packet) { n.doms[0].SendReverse(p) }

// BaseRTT returns the no-queueing round-trip time for the flow: the sum
// of its routed links' propagation delays — forward and, when the
// reverse path is routed, reverse — the extra forward delay and the
// return delay (transmission times excluded).
func (n *Network) BaseRTT(flow int) float64 {
	fs := n.flowAt(flow)
	if fs == nil {
		return 0
	}
	rtt := fs.fwdExtra + fs.revDelay
	for _, l := range fs.route {
		rtt += l.Delay
	}
	for _, l := range fs.revRoute {
		rtt += l.Delay
	}
	return rtt
}

// Delivered returns the number of packets a flow's route has carried to
// its end (whether consumed by a receiver or sunk).
func (n *Network) Delivered(flow int) int64 {
	if fs := n.flowAt(flow); fs != nil {
		return fs.delivered
	}
	return 0
}

// Outstanding returns issued-minus-returned packets of the domain's
// freelist: the number it believes are alive inside the network.
func (d *Domain) Outstanding() int64 { return d.issued - d.returned }

// InNetwork counts the packets demonstrably held by the domain: queued,
// serializing or propagating on one of its links — forward and routed
// reverse alike, since reverse links are ordinary graph links — or
// waiting in a pending delivery.
func (d *Domain) InNetwork() int {
	total := len(d.liveDel)
	for _, l := range d.links {
		total += l.InFlight()
	}
	return total
}

// Outstanding sums the domains' freelist ledgers.
func (n *Network) Outstanding() int64 {
	var total int64
	for _, d := range n.doms {
		total += d.Outstanding()
	}
	return total
}

// InNetwork sums the domains' in-network packet counts.
func (n *Network) InNetwork() int {
	total := 0
	for _, d := range n.doms {
		total += d.InNetwork()
	}
	return total
}

// CheckLeaks verifies the freelist leak invariant: every packet the
// pools issued is either returned or physically inside the network. It
// holds at any inter-event instant provided all sources draw from
// GetPacket and no endpoint retains or double-returns a packet. (With
// several domains the sharded executor checks each domain against its
// own cross-domain traffic as well.)
func (n *Network) CheckLeaks() error {
	if out, in := n.Outstanding(), int64(n.InNetwork()); out != in {
		return fmt.Errorf("topology: packet leak: %d outstanding from the freelist but %d in the network", out, in)
	}
	return nil
}
