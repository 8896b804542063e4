package shard

import "repro/internal/checkpoint"

// CheckpointHandoffs walks every shard's handoff counter in shard order:
// the one piece of state only sharding has. Snapshots are only taken
// between Run calls, when the cluster is barrier-aligned: every bundle
// is drained, so each message in flight across the cut is a pending
// delivery of its destination domain, which the network's delivery
// section saves with its timer (whose causal key is the source clock at
// emission).
func (c *Cluster) CheckpointHandoffs(cc checkpoint.Codec) {
	for _, s := range c.shards {
		cc.I64(&s.handoffs)
	}
}
