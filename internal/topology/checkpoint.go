package topology

import (
	"repro/internal/checkpoint"
	"repro/internal/netsim"
)

// The network's snapshot surface is split into sections, each one walk
// over a checkpoint.Codec that lists its fields once. The run driver
// (internal/experiments) sequences them explicitly, because their
// restore points differ: links restore right after the rebuild, flow
// overlays only after every flow — including churn arrivals — has been
// re-attached, deliveries after the endpoints they target exist, and
// the freelist ledgers last of all so the leak invariant holds the
// moment the restore completes.

// CheckpointLinks walks every link's state through c in link-id order.
// A restore draws each link's packets from its owning domain's
// freelist.
func (n *Network) CheckpointLinks(c checkpoint.Codec) {
	if !c.Same(len(n.links), "link count") {
		return
	}
	for id, l := range n.links {
		if c.Err() != nil {
			return
		}
		l.Checkpoint(c, n.owner(LinkID(id)).GetPacket)
	}
}

// CheckpointFlows walks the per-flow mutable overlay — delivery counter
// and, when reverse jitter is on, the flow's private jitter stream — of
// every attached flow in id order. On a restore every saved flow must
// already be re-attached (static flows by the rebuild, churn flows by
// the arrivals restore) with the same id.
func (n *Network) CheckpointFlows(c checkpoint.Codec) {
	count := n.attached()
	if !c.Same(count, "attached flow count") {
		return
	}
	id := -1
	for i := 0; i < count && c.Err() == nil; i++ {
		if c.Saving() { // advance to the next attached flow
			for id++; n.flows[id] == nil; id++ {
			}
		}
		c.Int(&id)
		fs := n.flowAt(id)
		if fs == nil {
			c.Fail("saved flow %d is not attached in the rebuilt network", id)
			return
		}
		c.I64(&fs.delivered)
		if n.ReverseJitter > 0 {
			fs.jitter.Checkpoint(c)
		}
	}
}

// CheckpointDeliveries walks every domain's pending pure-delay hand-offs
// in domain order: which endpoint of its flow each targets, the packet,
// and the hand-off timer. A restore re-creates each against the
// re-attached flows and re-arms it under its original timer identity.
func (n *Network) CheckpointDeliveries(c checkpoint.Codec) {
	for _, d := range n.doms {
		count := c.Len(len(d.liveDel))
		for i := 0; i < count && c.Err() == nil; i++ {
			var dv *delivery
			var toSender bool
			var p *netsim.Packet
			if c.Saving() {
				dv = d.liveDel[i]
				toSender, p = dv.toSender, dv.p
			}
			c.Bool(&toSender)
			p = netsim.CheckpointPacket(c, p, d.GetPacket)
			if !c.Saving() {
				fs := n.flowAt(p.Flow)
				if fs == nil {
					c.Fail("domain %d: pending delivery for unattached flow %d", d.id, p.Flow)
					return
				}
				to := fs.receiver
				if toSender {
					to = fs.sender
				}
				if to == nil {
					c.Fail("domain %d: pending delivery for flow %d targets a nil endpoint", d.id, p.Flow)
					return
				}
				dv = d.getDelivery(to, p, toSender)
			}
			if !d.sched.CheckpointTimer(c, &dv.tm, dv.run) && !c.Saving() {
				c.Fail("domain %d: pending delivery saved without a live timer", d.id)
			}
		}
	}
}

// CheckpointLedger walks every domain's freelist issue/return counters
// and the watched per-flow in-network accounts. It runs last in the
// restore sequence: every restore step before it drew its packets
// through GetPacket (inflating issued), and this overlay settles the
// ledgers back to the snapshot's truth so CheckLeaks holds immediately.
func (n *Network) CheckpointLedger(c checkpoint.Codec) {
	for _, d := range n.doms {
		c.I64(&d.issued)
		c.I64(&d.returned)
	}
	if !c.Same(len(n.lcCount), "watched flow count") {
		return
	}
	for i := range n.lcCount {
		v := int64(n.lcCount[i])
		c.I64(&v)
		n.lcCount[i] = int32(v)
	}
}
