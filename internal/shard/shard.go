// Package shard executes one topology.Network space-parallel: the node
// graph is partitioned into K scheduling domains (topology.Domain), each
// domain owns a private des.Scheduler (timing wheel) and packet freelist,
// and the domains advance in lockstep through conservative lookahead
// windows. The graph, the routes and the flow table are the network's
// and shared; this package adds only what sharding needs: the
// partitioner, the cut-link handoff and the bundles that carry it to the
// destination domain, the horizon, the window driver, stall detection,
// progress snapshots, and the snapshot section of the handoff counters.
// With K=1 a Cluster is the serial engine: one domain, driven by plain
// RunUntil with no window loop.
//
// # Partitioning rule
//
// Every node belongs to exactly one shard; a link belongs to the shard
// of its source node. A link whose destination node lives in another
// shard is a cut link: its serialization still happens on the owning
// shard, but instead of entering the propagation pipeline the packet is
// handed off (netsim.Link.Handoff) into an outbound bundle stamped with
// its arrival time, handoff-now + propagation delay. Because forwarding
// always continues in the shard of the node where a packet physically
// is, every other Send in the system stays shard-local (see
// topology.Domain.Arrive). The partitioner (Partition) never cuts a
// zero-delay channel: zero-delay links and zero-latency pure-delay
// reverse paths co-locate their endpoints.
//
// # Lookahead horizon
//
// The synchronization horizon Δ is the minimum latency over all
// cross-shard channels: the propagation delays of cut links, plus, for
// flows whose pure-delay reverse path crosses shards, the minimum
// jittered reverse delay revDelay·(1−jitter). A message emitted during
// the window [t, t+Δ) arrives no earlier than t+Δ, so each shard can
// execute a whole window without hearing from its peers — the classic
// barrier-at-horizon conservative scheme.
//
// # Deterministic merge order
//
// At each barrier every shard drains the bundles addressed to it in
// (src-shard, emission-seq) order and holds each message as a pending
// delivery (topology.Domain.Accept) due at its exact arrival time,
// carrying the source clock at emission as the causal tie-break key
// (des.AtOrigin). Within a shard, simultaneous events fire in (origin,
// scheduling-seq) order, so a cross-shard arrival that lands on the
// exact instant of a window-local event keeps the position its emission
// time would have earned it on a serial engine — such ties are
// systematic, not exotic, whenever link rates put serialization times
// on a common float lattice. Events are therefore totally ordered by
// (time, origin, src-shard, seq) — independent of wall-clock
// interleaving — and the run is bit-identical to the serial execution
// of the same graph, at any shard count, whether the shards' goroutines
// share one processor (GOMAXPROCS=1) or run on K.
package shard

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topology"
)

// message is one cross-shard event in a bundle: the packet travels by
// value so the source shard can recycle its copy at emission. origin is
// the source shard's clock at emission; the destination holds the
// packet as a pending delivery of the given kind until at, with origin
// as the causal tie-break key (des.AtOrigin), so an arrival that shares
// its exact firing instant with local events fires in the position its
// emission time would have earned it on a serial engine.
type message struct {
	at     float64
	origin float64
	pkt    netsim.Packet
	kind   topology.DeliveryKind
}

// Shard is one domain of the partition: the network's topology.Domain
// for it (scheduler, packet freelist and issue/return ledger, pending
// deliveries — cross-shard arrivals included — and tracer) plus its
// outbound bundles. It implements netsim.Network through the domain, so
// protocol endpoints constructed against it (tfrc.NewFlowOn,
// tcp.NewFlowOn) draw packets from and send through their own shard.
type Shard struct {
	*topology.Domain

	id    int
	sched des.Scheduler

	// handoffs counts cross-shard messages this shard has emitted.
	handoffs int64

	// out[parity][dst] is the bundle of messages emitted toward shard
	// dst during the current window. Two parities double-buffer the
	// bundles: while window w+1 runs (writing parity (w+1)%2), the
	// destinations drain parity w%2 — the barrier between windows
	// provides the happens-before edges in both directions.
	out [2][][]message

	// wbuf is the parity the shard is currently emitting into. It is
	// only touched by the goroutine driving this shard.
	wbuf int

	// remoteFn is emitToSender bound once, installed as the domain's
	// Remote hook at every placement.
	remoteFn func(dst int, p *netsim.Packet, at float64)

	// Barrier-published progress for the stall detector: the driving
	// goroutine stores these just before each barrier arrival, and only
	// the detector reads them (from whatever goroutine dumps the
	// diagnostics). Plain per-field atomics — no consistent snapshot
	// needed, every field is individually a barrier-aligned value.
	progWindow  atomic.Int64  // windows completed (1-based; 0 = never arrived)
	progClock   atomic.Uint64 // math.Float64bits of the shard clock
	progPend    atomic.Int64  // pending events on the shard's scheduler
	progLedger  atomic.Int64  // freelist ledger: issued - returned
	progFired   atomic.Uint64 // events fired on the shard's scheduler
	progCascade atomic.Uint64 // timing-wheel entry migrations performed
	progHandoff atomic.Int64  // cross-shard messages emitted
	// progWaitNs accumulates the wall-clock nanoseconds this shard's
	// driver spent waiting at window barriers. Together with the run's
	// wall time it yields the barrier-wait fraction — the load-imbalance
	// signal of the partition.
	progWaitNs atomic.Int64
}

// Snapshot is one shard's barrier-published progress: every field is a
// barrier-aligned value stored by the shard's driving goroutine at its
// latest window arrival (or, for BarrierWait, accumulated across them),
// readable from any goroutine while the run is in flight. It is the
// public face of the stall detector's progress atomics and the
// per-shard surface of the live-introspection endpoint.
type Snapshot struct {
	// Shard is the domain's index.
	Shard int
	// Window counts completed windows (1-based; 0 = not yet arrived).
	Window int64
	// Clock is the shard's simulated clock at its latest arrival.
	Clock float64
	// Pending is the live-timer population at the latest arrival.
	Pending int64
	// Ledger is the freelist's issued-minus-returned at the arrival.
	Ledger int64
	// Fired is the shard scheduler's cumulative event count.
	Fired uint64
	// Cascaded is the scheduler's cumulative timing-wheel event
	// migrations; cancelled events leave the wheel at once and never
	// migrate. Cascaded/Fired is the amortized wheel-maintenance cost
	// per event, a per-shard utilization signal.
	Cascaded uint64
	// Handoffs is the cumulative count of cross-shard messages emitted.
	Handoffs int64
	// BarrierWait is the cumulative wall-clock time the shard's driver
	// has spent waiting at window barriers.
	BarrierWait time.Duration
}

// Snapshot returns the shard's latest barrier-published progress.
func (s *Shard) Snapshot() Snapshot {
	return Snapshot{
		Shard:       s.id,
		Window:      s.progWindow.Load(),
		Clock:       math.Float64frombits(s.progClock.Load()),
		Pending:     s.progPend.Load(),
		Ledger:      s.progLedger.Load(),
		Fired:       s.progFired.Load(),
		Cascaded:    s.progCascade.Load(),
		Handoffs:    s.progHandoff.Load(),
		BarrierWait: time.Duration(s.progWaitNs.Load()),
	}
}

// publishProgress records the shard's barrier-aligned state for the
// stall detector. Called by the driving goroutine only.
func (s *Shard) publishProgress(window int) {
	s.progWindow.Store(int64(window) + 1)
	s.progClock.Store(math.Float64bits(s.sched.Now()))
	s.progPend.Store(int64(s.sched.Pending()))
	s.progLedger.Store(s.Outstanding())
	s.progFired.Store(s.sched.Fired())
	s.progCascade.Store(s.sched.Cascaded())
	s.progHandoff.Store(s.handoffs)
}

// emit appends a message to the bundle toward dst and recycles the
// source-side packet: from here on the destination shard's copy is the
// packet.
func (s *Shard) emit(dst int, kind topology.DeliveryKind, p *netsim.Packet, at float64) {
	box := &s.out[s.wbuf][dst]
	*box = append(*box, message{at: at, origin: s.sched.Now(), pkt: *p, kind: kind})
	s.handoffs++
	s.Trace.Emit(s.sched.Now(), obs.EvHandoff, int32(p.Flow), -1, float64(dst))
	s.PutPacket(p)
}

// emitToSender is the domain's Remote hook: a pure-delay reverse packet
// bound for a sender in shard dst.
func (s *Shard) emitToSender(dst int, p *netsim.Packet, at float64) {
	s.emit(dst, topology.ToSender, p, at)
}
