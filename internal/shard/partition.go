package shard

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// Partition splits the declared node graph into at most k shards — one
// topology.Domain each — and materializes every link on its owning
// shard's scheduler. Call it after AddNode/AddLink and the route/jitter
// declarations, before attaching flows. k <= 1 makes the single-shard
// (serial) cluster without running the partitioner.
//
// The partitioner works in two stages:
//
//  1. Co-location constraints. A zero-delay link provides no lookahead,
//     so its endpoints must share a shard: union-find merges them into
//     atoms. (Pure-delay reverse paths are constrained at seal time
//     instead — flows attach after the partition — by requiring a
//     positive minimum jittered reverse delay across any split.)
//
//  2. Contiguous greedy assignment. Atoms, ordered by their smallest
//     node id, are packed into at most k contiguous segments of roughly
//     equal weight, where a node weighs 1 plus its out-degree — a cheap
//     proxy for the event load its links generate. Contiguity matches
//     the chain/parking-lot graphs this repo sweeps (node ids follow
//     the path), keeps every cut a genuine chain cut, and — crucial for
//     the determinism contract — makes the partition a pure function of
//     the declared graph and k.
//
// The effective shard count (Shards) can come out lower than k when the
// graph has fewer atoms.
func (c *Cluster) Partition(k int) {
	if len(c.shards) > 0 {
		panic("shard: Partition called twice")
	}
	n := c.Nodes()
	if n == 0 {
		panic("shard: Partition on an empty graph")
	}
	c.part = append(c.part[:0], make([]int, n)...)
	c.k = 1
	if k > 1 {
		c.k = c.assign(k)
	}

	// Materialize shards, then place the network's domains on their
	// schedulers: every link is built on the shard of its source node.
	c.scheds = c.scheds[:0]
	for i := 0; i < c.k; i++ {
		var s *Shard
		if i < cap(c.shards) {
			c.shards = c.shards[:i+1]
			s = c.shards[i]
		} else {
			c.shards = append(c.shards, nil)
		}
		if s == nil {
			s = &Shard{}
			s.remoteFn = s.emitToSender
			c.shards[i] = s
		}
		s.id = i
		for parity := range s.out {
			for len(s.out[parity]) < c.k {
				s.out[parity] = append(s.out[parity], nil)
			}
			s.out[parity] = s.out[parity][:c.k]
		}
		c.scheds = append(c.scheds, &s.sched)
	}
	c.Place(c.part, c.scheds)
	for i, s := range c.shards {
		s.Domain = c.Domain(i)
		s.Remote = s.remoteFn
	}

	// A link whose destination is on another shard gets a Handoff that
	// bundles the packet toward the destination shard when its
	// serialization starts, with arrival time departure + propagation
	// delay and the departure as its causal key.
	c.cutDelay = math.Inf(1)
	for id := 0; id < c.Links(); id++ {
		from, to, delay := c.Edge(topology.LinkID(id))
		if c.part[from] == c.part[to] {
			continue
		}
		src, dst := c.shards[c.part[from]], c.part[to]
		l := c.Link(topology.LinkID(id))
		l.Deliver = cutDeliver
		l.Handoff = func(p *netsim.Packet) {
			depart := l.Departure()
			src.emit(dst, topology.ToNode, p, depart+delay, depart)
		}
		src.cut = append(src.cut, l)
		c.cutDelay = math.Min(c.cutDelay, delay)
	}
}

// cutDeliver is a cut link's Deliver sink: Handoff owns its propagation
// stage, so it never runs.
func cutDeliver(*netsim.Packet) {
	panic("shard: Deliver on a cut link (Handoff owns the propagation stage)")
}

// assign runs the two partitioning stages for k > 1 shards, filling
// c.part, and returns the effective shard count.
func (c *Cluster) assign(k int) int {
	n := c.Nodes()

	// Stage 1: union endpoints of zero-delay links.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	weight := make([]float64, n)
	for i := range weight {
		weight[i] = 1
	}
	for id := 0; id < c.Links(); id++ {
		from, to, delay := c.Edge(topology.LinkID(id))
		weight[from]++
		if delay <= 0 {
			a, b := find(int(from)), find(int(to))
			if a != b {
				if a > b {
					a, b = b, a
				}
				parent[b] = a // smaller id wins: atom order stays node order
			}
		}
	}

	// Atoms in order of their smallest node id, with weights.
	atomIndex := make(map[int]int)
	var atomNodes [][]int
	var atomWeight []float64
	var total float64
	for v := 0; v < n; v++ {
		root := find(v)
		ai, ok := atomIndex[root]
		if !ok {
			ai = len(atomNodes)
			atomIndex[root] = ai
			atomNodes = append(atomNodes, nil)
			atomWeight = append(atomWeight, 0)
		}
		atomNodes[ai] = append(atomNodes[ai], v)
		atomWeight[ai] += weight[v]
		total += weight[v]
	}
	if k > len(atomNodes) {
		k = len(atomNodes)
	}

	// Stage 2: pack atoms into <= k contiguous segments. A segment
	// closes once it reaches the ideal share, but never so greedily that
	// the remaining atoms could not fill the remaining segments.
	target := total / float64(k)
	seg, segWeight := 0, 0.0
	for ai := range atomNodes {
		remainingAtoms := len(atomNodes) - ai
		remainingSegs := k - seg
		if segWeight > 0 && (segWeight >= target || remainingAtoms == remainingSegs) && seg < k-1 {
			seg++
			segWeight = 0
		}
		for _, v := range atomNodes[ai] {
			c.part[v] = seg
		}
		segWeight += atomWeight[ai]
	}
	return seg + 1
}
