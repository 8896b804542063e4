package experiments

import (
	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/topology"
)

// simExec is the executor seam between the multi-hop experiment
// builders and the two engines that can host them: the serial
// topology.Network on one scheduler, and the space-parallel
// shard.Cluster with one scheduler per shard. The build surface (nodes,
// links, routes, jitter, sinks) is declared identically against either;
// the executor-specific part is where a flow's endpoints live
// (FlowEnv/SinkEnv), how time advances (RunUntil), and how the freelist
// invariant is audited (CheckLeaks). RunTopoSim and RunRevSim are
// written once against this seam, so the sharded and serial runs are
// the same build code by construction — the determinism contract then
// only depends on the engines, which the shard package pins.
type simExec interface {
	AddNode(name string) topology.NodeID
	AddLink(from, to topology.NodeID, rate, delay float64, queue netsim.Queue) topology.LinkID
	SetRoute(flow int, hops ...topology.LinkID)
	SetDefaultRoute(hops ...topology.LinkID)
	SetReverseRoute(flow int, hops ...topology.LinkID)
	SetDefaultReverseRoute(hops ...topology.LinkID)
	SetReverseJitter(j float64, seed uint64)
	AttachSink(flow int, hops ...topology.LinkID)
	Link(id topology.LinkID) *netsim.Link
	// Links returns the number of declared links; together with Link and
	// LinkSched it satisfies fault.Host, so a fault.Plan arms identically
	// against either engine.
	Links() int
	// LinkSched returns the scheduler that owns the link — the engine's
	// only scheduler on the serial executor, the owning shard's on the
	// sharded one. Fault events for a link must fire there.
	LinkSched(id topology.LinkID) *des.Scheduler
	BaseRTT(flow int) float64

	// arrivals.Host is the run-time churn seam: RouteEnv resolves
	// endpoint environments from explicit hops, AttachLive registers a
	// flow while the simulation runs, and Lifecycle exposes detach (nil
	// on the sharded executor, which never reclaims).
	arrivals.Host
	// ReserveFlows sizes the flow table for live attachment: ids
	// [0, max) become attachable mid-run. On the sharded executor the
	// table's slice header must not move while shard goroutines read it,
	// so reservation is mandatory before the first Run that attaches.
	ReserveFlows(max int)
	// DeclareReverseChannel pre-declares a pure-delay reverse channel
	// for flows that will attach live over the given forward route, so
	// the sharded executor can fold the reverse latency into its
	// conservative horizon before sealing. The serial executor ignores
	// it.
	DeclareReverseChannel(hops []topology.LinkID, revDelay float64)

	// Freeze ends graph declaration: the sharded executor partitions
	// here (links materialize on their owning shards), the serial one
	// has nothing to do. Call it after every AddLink and before the
	// first FlowEnv.
	Freeze()
	// FlowEnv resolves the scheduler/network pair each of a flow's
	// endpoints must be built on (tfrc.NewFlowOn / tcp.NewFlowOn). The
	// flow's route must be resolvable (SetRoute or SetDefaultRoute).
	FlowEnv(flow int) (sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network)
	// SinkEnv resolves the pair a sink flow's source must run on.
	SinkEnv(hops ...topology.LinkID) (*des.Scheduler, netsim.Network)
	// AttachTracers installs bounded event tracers (one per scheduling
	// domain) of the given capacity; cap <= 0 keeps tracing off (every
	// tracer nil, every hook a nil-sink). Call it between Freeze and the
	// first endpoint construction — senders and receivers resolve their
	// domain's tracer once, when built.
	AttachTracers(cap int)
	// Tracers returns the per-domain tracers in domain order (a single
	// element on the serial engine), nil entries when tracing is off.
	Tracers() []*obs.Tracer
	// RunUntil advances simulated time, firing every event with
	// timestamp <= t. Between calls the engine is phase-aligned: stats
	// may be read and reset, and CheckLeaks holds.
	RunUntil(t float64)
	// Fired returns total events executed (summed over shards).
	Fired() uint64
	// Pending returns the live scheduled-event population (summed over
	// shards) — executor-invariant at phase-aligned instants.
	Pending() int
	// Outstanding returns the freelist's in-flight packet population.
	Outstanding() int64
	CheckLeaks() error
	// Close recycles the executor's arena. The executor must not be
	// used afterwards, and nothing returned by the run may alias it.
	Close()
}

// shardForceParallel routes sharded runs through the goroutine-per-
// shard barrier driver even on a single-CPU host. Tests set it (under
// -race) to prove the parallel driver produces the same bytes the
// sequential window loop does.
var shardForceParallel bool

// newExec returns the executor for the requested shard count: the
// serial engine for shards <= 1, the partitioned cluster otherwise.
// Close must be called when the run's results have been copied out.
func newExec(shards int) simExec {
	if shards > 1 {
		c := clusterPool.get()
		c.Reset()
		c.ForceParallel = shardForceParallel
		e := &shardExec{Cluster: c, k: shards}
		if Observe.Live {
			// Shard snapshots are atomics-backed, so the expvar goroutine
			// may sample them mid-run without perturbing the simulation.
			e.liveKey = obs.PublishLive("cluster", func() any { return c.Snapshots() })
		}
		return e
	}
	a := getArena()
	return &serialExec{Network: a.net, a: a}
}

// serialExec adapts the pooled serial arena: one scheduler, one
// network, both endpoints of every flow in the same place.
type serialExec struct {
	*topology.Network
	a *simArena
}

func (e *serialExec) Freeze() {}

func (e *serialExec) FlowEnv(int) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	return &e.a.sched, e.a.net, &e.a.sched, e.a.net
}

func (e *serialExec) SinkEnv(...topology.LinkID) (*des.Scheduler, netsim.Network) {
	return &e.a.sched, e.a.net
}

func (e *serialExec) AttachTracers(cap int) { e.Network.Trace = obs.NewTracer(cap, 0) }

func (e *serialExec) Tracers() []*obs.Tracer { return []*obs.Tracer{e.Network.Trace} }

// RouteEnv ignores the hops: both endpoints of every flow live on the
// serial engine's one scheduler.
func (e *serialExec) RouteEnv([]topology.LinkID) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	return &e.a.sched, e.a.net, &e.a.sched, e.a.net
}

func (e *serialExec) AttachLive(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []topology.LinkID, fwdExtra, revDelay float64) {
	e.Network.AttachFlowOn(flow, sender, receiver, fwdHops, revHops, fwdExtra, revDelay)
}

// Lifecycle exposes the serial network's detach surface: churn flows
// are reclaimed and their endpoints recycled.
func (e *serialExec) Lifecycle() arrivals.Lifecycle { return e.Network }

// DeclareReverseChannel is a no-op: the serial engine has no horizon.
func (e *serialExec) DeclareReverseChannel([]topology.LinkID, float64) {}

func (e *serialExec) RunUntil(t float64) { e.a.sched.RunUntil(t) }
func (e *serialExec) Fired() uint64      { return e.a.sched.Fired() }
func (e *serialExec) Pending() int       { return e.a.sched.Pending() }
func (e *serialExec) Close()             { putArena(e.a) }

// shardExec adapts a pooled shard.Cluster. The embedded cluster
// provides the declaration surface, Link/BaseRTT/Fired/CheckLeaks;
// the methods below bridge the signature differences.
type shardExec struct {
	*shard.Cluster
	k int
	// liveKey is the cluster's registration on the live-introspection
	// surface (empty when Observe.Live is off); Close retires it.
	liveKey string
}

func (e *shardExec) Freeze() { e.Partition(e.k) }

func (e *shardExec) FlowEnv(flow int) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	snd, rcv := e.Cluster.FlowEnv(flow)
	return snd.Sched(), snd, rcv.Sched(), rcv
}

func (e *shardExec) SinkEnv(hops ...topology.LinkID) (*des.Scheduler, netsim.Network) {
	s := e.Cluster.SinkEnv(hops...)
	return s.Sched(), s
}

// RouteEnv shadows the cluster's shard-typed variant with the
// scheduler/network 4-tuple the flow builders want.
func (e *shardExec) RouteEnv(fwdHops []topology.LinkID) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	snd, rcv := e.Cluster.RouteEnv(fwdHops)
	return snd.Sched(), snd, rcv.Sched(), rcv
}

// Lifecycle returns nil: detaching a flow mid-run would be a
// cross-shard write, so on the cluster churn flows stay attached and
// every arrival builds fresh endpoints.
func (e *shardExec) Lifecycle() arrivals.Lifecycle { return nil }

func (e *shardExec) RunUntil(t float64) { e.Run(t) }

// Close recycles the cluster — unless a stall detector tripped on it: a
// poisoned cluster may still be referenced by an abandoned shard driver,
// so it is leaked rather than pooled (Reset would panic on it anyway).
func (e *shardExec) Close() {
	if e.liveKey != "" {
		obs.UnpublishLive(e.liveKey)
	}
	if e.Poisoned() {
		return
	}
	clusterPool.put(e.Cluster)
}

// clusterPool recycles clusters like arenaPool recycles serial arenas:
// the shards' schedulers, freelists and bundle buffers survive Reset,
// so a sharded replication rebuilds in place.
var clusterPool = freeList[*shard.Cluster]{new: shard.New}
