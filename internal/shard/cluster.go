package shard

import (
	"fmt"
	"math"
	"time"

	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Cluster is a topology.Network executed across K shards, one
// scheduling domain each. Declare the graph through the embedded
// network (AddNode, AddLink, routes, jitter), call Partition, place
// endpoints with FlowEnv + tfrc/tcp NewFlowOn, then drive it with Run.
// K=1 is the serial engine; several shards run the same graph
// space-parallel with bit-identical results.
//
// The zero Cluster is not ready; use New (or Reset a used one).
type Cluster struct {
	topology.Network

	shards []*Shard
	k      int
	// part and scheds are Partition's scratch (node → shard, and the
	// shards' schedulers in order), kept across Reset.
	part   []int
	scheds []*des.Scheduler

	horizon float64
	sealed  bool
	// cutDelay is the smallest propagation delay over the cut links
	// (+Inf when nothing is cut), fixed by Partition.
	cutDelay float64
	// reserved is the flow-table size ReserveFlows guaranteed: a live
	// attach beyond it would grow the table under running shards.
	reserved int

	// declaredRev holds the pure-delay reverse latencies announced by
	// DeclareReverseChannel for flows that will attach at run time —
	// after seal has already computed the horizon from the build-time
	// flow population. seal folds them in exactly like attached flows'.
	declaredRev []float64

	// StallBudget bounds the wall-clock time any shard may spend waiting
	// at a window barrier before the stall detector aborts the run with
	// per-shard diagnostics. Zero applies DefaultStallBudget; negative
	// disables detection.
	StallBudget time.Duration

	// stallHook, when set (tests only), runs at the top of every window,
	// before the shard executes it. Injecting a sleep here simulates a
	// stalled or slow shard.
	stallHook func(shard, window int)

	// poisoned marks a cluster whose run aborted on a tripped barrier:
	// an abandoned driver goroutine may still reference the shards, so
	// the cluster must never be reused (or pooled).
	poisoned bool
}

// New returns an empty cluster.
func New() *Cluster { return &Cluster{} }

// Reset empties the graph, partition and flow table while keeping the
// domains' freelists and the shards' schedulers and bundle buffers, so
// a pooled cluster rebuilds its next simulation in place (see the run
// arena in internal/experiments).
func (c *Cluster) Reset() {
	if c.poisoned {
		panic("shard: Reset on a poisoned cluster (its barrier tripped; an abandoned driver may still hold it)")
	}
	c.Network.Reset()
	for _, s := range c.shards {
		s.Domain = nil
		s.sched.Reset()
		s.wbuf = 0
		s.handoffs = 0
		s.progWindow.Store(0)
		s.progClock.Store(0)
		s.progPend.Store(0)
		s.progLedger.Store(0)
		s.progFired.Store(0)
		s.progCascade.Store(0)
		s.progHandoff.Store(0)
		s.progWaitNs.Store(0)
		for parity := range s.out {
			for d := range s.out[parity] {
				s.out[parity][d] = s.out[parity][d][:0]
			}
		}
	}
	c.shards = c.shards[:0]
	c.k = 0
	c.horizon = 0
	c.sealed = false
	c.cutDelay = 0
	c.reserved = 0
	c.declaredRev = c.declaredRev[:0]
	c.StallBudget = 0
	c.stallHook = nil
}

func (c *Cluster) mustPartitioned() {
	if len(c.shards) == 0 {
		panic("shard: Partition first")
	}
}

// FlowEnv returns the shards of a flow's two endpoints: the sender
// lives on the shard of its route's first node, the receiver on the
// shard of its last. Valid after Partition; pass each shard's scheduler
// and the shard itself to tfrc.NewFlowOn / tcp.NewFlowOn.
func (c *Cluster) FlowEnv(flow int) (snd, rcv *Shard) {
	c.mustPartitioned()
	a, b := c.RouteDomains(c.FlowRoute(flow))
	return c.shards[a], c.shards[b]
}

// SinkEnv returns the shard a sink flow's source must run on: the shard
// owning the route's first node. Valid after Partition.
func (c *Cluster) SinkEnv(hops ...topology.LinkID) *Shard {
	c.mustPartitioned()
	a, _ := c.RouteDomains(hops)
	return c.shards[a]
}

// RouteEnv implements arrivals.Host: the schedulers and networks of a
// route's two ends, resolved without declaring a flow, so the churn
// engine places each class's endpoints once, before any of the class's
// flows exist. Valid after Partition.
func (c *Cluster) RouteEnv(hops []topology.LinkID) (sndSched *des.Scheduler, sndNet netsim.Network, rcvSched *des.Scheduler, rcvNet netsim.Network) {
	c.mustPartitioned()
	a, b := c.RouteDomains(hops)
	snd, rcv := c.shards[a], c.shards[b]
	return snd.Sched(), snd, rcv.Sched(), rcv
}

// AttachLive implements arrivals.Host: it registers a flow during a
// run, from an arrival event executing on the shard that owns the
// route's first node, through the network's one attach path. With
// several shards the flow id must lie inside the table ReserveFlows
// sized: the attach then writes only the flow's own slot and its
// shard's domain, and other shards observe the new flow only through
// its packets, which cross shards no earlier than the next window
// barrier — the barrier's happens-before edge orders the store before
// every remote read.
func (c *Cluster) AttachLive(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []topology.LinkID, fwdExtra, revDelay float64) {
	if c.k > 1 && flow >= c.reserved {
		panic(fmt.Sprintf("shard: live attach of flow %d outside the reserved table (ReserveFlows first)", flow))
	}
	c.AttachFlowOn(flow, sender, receiver, fwdHops, revHops, fwdExtra, revDelay)
}

// Lifecycle implements arrivals.Host. On one shard it is the network's
// detach surface, so departed churn flows are reclaimed and their
// endpoints recycled; with several shards it is nil — a detach would be
// a cross-shard write — and departed flows stay resident.
func (c *Cluster) Lifecycle() arrivals.Lifecycle {
	if c.k == 1 {
		return &c.Network
	}
	return nil
}

// ReserveFlows pre-sizes the flow table for ids [0, max). Mandatory
// before a sharded run that attaches flows at simulation time
// (AttachLive): the table must never move while shard goroutines read
// it.
func (c *Cluster) ReserveFlows(max int) {
	if c.sealed {
		panic("shard: ReserveFlows after the first Run")
	}
	c.Network.ReserveFlows(max)
	if max > c.reserved {
		c.reserved = max
	}
}

// DeclareReverseChannel announces that run-time attached flows will
// open a pure-delay reverse channel of the given latency from the
// route's last node back to its first. seal computes the lookahead
// horizon from the flow population at the first Run — flows that attach
// later (internal/arrivals) must declare their reverse latency here
// beforehand, or the window size would ignore their cross-shard
// channel. A routed reverse path needs no declaration: its links are
// cut links with their own delays. No-op when the two ends share a
// shard. Call after Partition, before the first Run.
func (c *Cluster) DeclareReverseChannel(hops []topology.LinkID, revDelay float64) {
	c.mustPartitioned()
	if c.sealed {
		panic("shard: DeclareReverseChannel after the first Run")
	}
	if snd, rcv := c.RouteDomains(hops); snd != rcv {
		c.declaredRev = append(c.declaredRev, revDelay)
	}
}

// Shards returns the effective shard count (after Partition; the
// partitioner may produce fewer domains than requested).
func (c *Cluster) Shards() int { return c.k }

// Fired returns the total events executed across all shards. On
// identical trajectories it equals the serial engine's count: every
// serial event maps to exactly one event on exactly one shard (a cut
// link's propagation event becomes the destination shard's delivery
// event, one for one).
func (c *Cluster) Fired() uint64 {
	var total uint64
	for _, s := range c.shards {
		total += s.sched.Fired()
	}
	return total
}

// Pending sums the shards' live scheduled-event populations. At a
// barrier-aligned instant it is executor-invariant: every serial event
// maps to exactly one event on exactly one shard (see Fired).
func (c *Cluster) Pending() int {
	total := 0
	for _, s := range c.shards {
		total += s.sched.Pending()
	}
	return total
}

// Shard returns shard i (for per-shard assertions in tests).
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Snapshots returns every shard's latest barrier-published progress in
// shard order. Safe to call from any goroutine while a run is in
// flight — the live-introspection endpoint polls it to show per-shard
// clocks, event throughput and barrier-wait fractions.
func (c *Cluster) Snapshots() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Snapshot()
	}
	return out
}

// Poisoned reports whether a parallel run aborted on a tripped barrier.
// A poisoned cluster must be discarded: an abandoned driver goroutine
// may still be stuck inside one of its shards.
func (c *Cluster) Poisoned() bool { return c.poisoned }

// CheckLeaks verifies the cross-shard freelist protocol at a barrier-
// aligned instant (any time between Run calls): every bundle drained,
// and Outstanding == InNetwork both per shard and globally. The
// per-shard invariant holds because a handoff returns the packet to the
// source shard's pool at emission and the destination issues its own
// copy at the barrier, so a packet in flight across a cut is charged to
// exactly one ledger — the destination's, as a pending delivery.
func (c *Cluster) CheckLeaks() error {
	for _, s := range c.shards {
		for parity := range s.out {
			for dst := range s.out[parity] {
				if n := len(s.out[parity][dst]); n != 0 {
					return fmt.Errorf("shard %d: %d undrained messages toward shard %d", s.id, n, dst)
				}
			}
		}
		if out, in := s.Outstanding(), int64(s.InNetwork()); out != in {
			return fmt.Errorf("shard %d: packet leak: %d outstanding from the freelist but %d in the shard", s.id, out, in)
		}
	}
	if out, in := c.Outstanding(), int64(c.InNetwork()); out != in {
		return fmt.Errorf("shard: global packet leak: %d outstanding but %d in the network", out, in)
	}
	return nil
}

// seal computes the synchronization horizon on the first Run, once the
// flow population is known: the minimum latency over every cross-shard
// channel — cut-link propagation delays and, for flows whose pure-delay
// reverse path crosses shards, the minimum jittered reverse delay.
func (c *Cluster) seal() {
	if c.sealed {
		return
	}
	c.mustPartitioned()
	c.sealed = true
	if c.k == 1 {
		c.horizon = 0
		return
	}
	// +Inf when the shards never exchange messages: each Run is then one
	// window, every shard running independently to its end.
	h := math.Min(c.cutDelay, c.RemoteReturn())
	for _, d := range c.declaredRev {
		h = math.Min(h, d*(1-c.ReverseJitter))
	}
	if h <= 0 {
		panic(fmt.Sprintf("shard: zero lookahead across a shard cut (horizon %v); reduce the shard count or give cross-shard channels positive delay", h))
	}
	c.horizon = h
}
