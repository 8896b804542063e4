package shard

import (
	"repro/internal/checkpoint"
	"repro/internal/netsim"
)

// The network's own snapshot sections (links, flows, deliveries,
// ledgers) cover every domain; the cluster adds the one piece of state
// only sharding has, its cross-shard traffic. Snapshots are only taken
// between Run calls, when the cluster is barrier-aligned: every bundle
// is drained, so the only cross-shard state in flight is the
// scheduled-but-unfired injections, which each destination shard owns
// and saves like any other timer.

// SaveHandoffs writes every shard's cross-shard traffic in shard order:
// its handoff count, then its scheduled-but-unfired arrivals — the
// destination-side packet copy, the message kind, and the injection
// timer (whose causal key is the source clock at emission).
func (c *Cluster) SaveHandoffs(w *checkpoint.Writer) {
	for _, s := range c.shards {
		w.I64(s.handoffs)
		w.Int(len(s.liveInj))
		for _, in := range s.liveInj {
			w.U8(in.kind)
			netsim.SavePacket(w, in.p)
			w.Timer(in.tm.State())
		}
	}
}

// RestoreHandoffs re-creates each shard's handoff count and pending
// injections with their original timer identities, preserving the
// deterministic merge order of the interrupted run's last barrier.
// Injection packets are drawn from the shard's freelist, so it runs
// before the network's ledger restore.
func (c *Cluster) RestoreHandoffs(r *checkpoint.Reader) {
	for _, s := range c.shards {
		s.handoffs = r.I64()
		n := r.Count()
		for i := 0; i < n; i++ {
			if r.Err() != nil {
				return
			}
			kind := r.U8()
			if kind != kindArrive && kind != kindToSender {
				r.Fail("shard %d: unknown injection kind %d", s.id, kind)
				return
			}
			p := s.GetPacket()
			netsim.RestorePacket(r, p)
			st := r.Timer()
			if !st.OK {
				r.Fail("shard %d: pending injection saved without a live timer", s.id)
				return
			}
			in := s.getInjection()
			in.p = p
			in.kind = kind
			in.tm = s.sched.RestoreTimer(st, in.run)
		}
	}
}
