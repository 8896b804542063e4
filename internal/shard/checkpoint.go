package shard

import (
	"repro/internal/checkpoint"
	"repro/internal/netsim"
)

// The network's own snapshot sections (links, flows, deliveries,
// ledgers) cover every domain; the cluster adds the one piece of state
// only sharding has, its cross-shard traffic, as one more walk over a
// checkpoint.Codec that lists its fields once. Snapshots are only taken
// between Run calls, when the cluster is barrier-aligned: every bundle
// is drained, so the only cross-shard state in flight is the
// scheduled-but-unfired injections, which each destination shard owns
// and saves like any other timer.

// CheckpointHandoffs walks every shard's cross-shard traffic in shard
// order: its handoff count, then its scheduled-but-unfired arrivals —
// the message kind, the destination-side packet copy, and the injection
// timer (whose causal key is the source clock at emission). A restore
// re-creates the injections with their original timer identities,
// preserving the deterministic merge order of the interrupted run's
// last barrier; their packets are drawn from the shard's freelist, so
// it runs before the network's ledger restore.
func (c *Cluster) CheckpointHandoffs(cc checkpoint.Codec) {
	for _, s := range c.shards {
		cc.I64(&s.handoffs)
		count := cc.Len(len(s.liveInj))
		for i := 0; i < count && cc.Err() == nil; i++ {
			var in *injection
			var kind uint8
			var p *netsim.Packet
			if cc.Saving() {
				in = s.liveInj[i]
				kind, p = in.kind, in.p
			}
			cc.U8(&kind)
			if kind != kindArrive && kind != kindToSender && !cc.Saving() {
				cc.Fail("shard %d: unknown injection kind %d", s.id, kind)
				return
			}
			p = netsim.CheckpointPacket(cc, p, s.GetPacket)
			if !cc.Saving() {
				in = s.getInjection()
				in.p, in.kind = p, kind
			}
			if !s.sched.CheckpointTimer(cc, &in.tm, in.run) && !cc.Saving() {
				cc.Fail("shard %d: pending injection saved without a live timer", s.id)
			}
		}
	}
}
