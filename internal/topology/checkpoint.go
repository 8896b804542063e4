package topology

import (
	"repro/internal/checkpoint"
	"repro/internal/netsim"
)

// The network's snapshot surface is split into sections the restore
// orchestrator (internal/experiments) sequences explicitly, because
// their restore points differ: links restore right after the rebuild,
// flow overlays only after every flow — including churn arrivals — has
// been re-attached, deliveries after the endpoints they target exist,
// and the freelist ledgers last of all so the leak invariant holds the
// moment the restore completes.

// SaveLinks writes every link's state in link-id order.
func (n *Network) SaveLinks(w *checkpoint.Writer) {
	w.Int(len(n.links))
	for _, l := range n.links {
		l.Save(w)
	}
}

// RestoreLinks overlays saved state onto the rebuilt links. Each link's
// packets are drawn from its owning domain's freelist.
func (n *Network) RestoreLinks(r *checkpoint.Reader) {
	if c := r.Count(); c != len(n.links) {
		r.Fail("snapshot has %d links, rebuilt graph has %d", c, len(n.links))
		return
	}
	for id, l := range n.links {
		if r.Err() != nil {
			return
		}
		l.Restore(r, n.owner(LinkID(id)).GetPacket)
	}
}

// SaveFlows writes the per-flow mutable overlay — delivery counter and,
// when reverse jitter is on, the flow's private jitter stream — for
// every attached flow in id order.
func (n *Network) SaveFlows(w *checkpoint.Writer) {
	w.Int(n.attached())
	for id, fs := range n.flows {
		if fs == nil {
			continue
		}
		w.Int(id)
		w.I64(fs.delivered)
		if n.ReverseJitter > 0 {
			for _, word := range fs.jitter.State() {
				w.U64(word)
			}
		}
	}
}

// RestoreFlows overlays per-flow state saved by SaveFlows. Every saved
// flow must already be re-attached (static flows by the rebuild, churn
// flows by the arrivals restore) with the same id.
func (n *Network) RestoreFlows(r *checkpoint.Reader) {
	c := r.Count()
	if have := n.attached(); c != have {
		r.Fail("snapshot has %d attached flows, rebuilt network has %d", c, have)
		return
	}
	for i := 0; i < c; i++ {
		if r.Err() != nil {
			return
		}
		id := r.Int()
		fs := n.flowAt(id)
		if fs == nil {
			r.Fail("saved flow %d is not attached in the rebuilt network", id)
			return
		}
		fs.delivered = r.I64()
		if n.ReverseJitter > 0 {
			var st [4]uint64
			for j := range st {
				st[j] = r.U64()
			}
			if r.Err() == nil {
				fs.jitter.SetState(st)
			}
		}
	}
}

// SaveDeliveries writes every domain's pending pure-delay hand-offs in
// domain order: the packet, which endpoint of its flow it targets, and
// the hand-off timer.
func (n *Network) SaveDeliveries(w *checkpoint.Writer) {
	for _, d := range n.doms {
		w.Int(len(d.liveDel))
		for _, dv := range d.liveDel {
			w.Bool(dv.toSender)
			netsim.SavePacket(w, dv.p)
			w.Timer(dv.tm.State())
		}
	}
}

// RestoreDeliveries re-creates each domain's pending hand-offs against
// the re-attached flows, re-arming each with its original timer
// identity.
func (n *Network) RestoreDeliveries(r *checkpoint.Reader) {
	for _, d := range n.doms {
		c := r.Count()
		for i := 0; i < c; i++ {
			if r.Err() != nil {
				return
			}
			toSender := r.Bool()
			p := d.GetPacket()
			netsim.RestorePacket(r, p)
			st := r.Timer()
			if !st.OK {
				r.Fail("domain %d: pending delivery saved without a live timer", d.id)
				return
			}
			fs := n.flowAt(p.Flow)
			if fs == nil {
				r.Fail("domain %d: pending delivery for unattached flow %d", d.id, p.Flow)
				return
			}
			to := fs.receiver
			if toSender {
				to = fs.sender
			}
			if to == nil {
				r.Fail("domain %d: pending delivery for flow %d targets a nil endpoint", d.id, p.Flow)
				return
			}
			dv := d.getDelivery(to, p, toSender)
			dv.tm = d.sched.RestoreTimer(st, dv.run)
		}
	}
}

// SaveLedger writes every domain's freelist issue/return counters and
// the watched per-flow in-network accounts.
func (n *Network) SaveLedger(w *checkpoint.Writer) {
	for _, d := range n.doms {
		w.I64(d.issued)
		w.I64(d.returned)
	}
	w.Int(len(n.lcCount))
	for _, v := range n.lcCount {
		w.I64(int64(v))
	}
}

// RestoreLedger overlays the counters saved by SaveLedger. It runs last
// in the restore sequence: every restore step before it drew its
// packets through GetPacket (inflating issued), and this overlay
// settles the ledgers back to the snapshot's truth so CheckLeaks holds
// immediately.
func (n *Network) RestoreLedger(r *checkpoint.Reader) {
	for _, d := range n.doms {
		d.issued = r.I64()
		d.returned = r.I64()
	}
	c := r.Count()
	if c != len(n.lcCount) {
		r.Fail("snapshot watches %d flows, rebuilt network watches %d", c, len(n.lcCount))
		return
	}
	for i := 0; i < c; i++ {
		n.lcCount[i] = int32(r.I64())
	}
}
