package experiments

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Every packet-level run — each spec the one run driver builds (see
// run.go), serial or sharded — executes on a shard.Cluster drawn from
// one pool: the cluster's network is the run's topology.Network,
// Partition(1) makes it the serial engine and Partition(K) splits it
// into K scheduling domains. The driver validates the spec first, so a
// bad config never draws a cluster. A run draws a cluster, builds its
// graph in place, and returns it — so a replication pays for its
// protocol state only, not for the simulator substrate: the schedulers
// (wheel buckets, slot tables, freelists), the domains' packet,
// delivery and flow-state pools and the shards' bundle buffers all
// carry their capacity across runs. Idle
// clusters wait on a free list: a sweep keeps as many as it has runs in
// flight, and every later run starts warm.
//
// A cluster is Reset when it is returned, not when it is next drawn, so
// an idle cluster holds capacity only: the finished run's endpoints,
// engines and pending events are unreachable from the free list and the
// garbage collector takes them while the cluster waits.
//
// Reuse is invisible to results: the cluster Reset restores the exact
// zero-value semantics (clock 0, empty graph, fresh counters), every
// packet is zeroed on Get, and event order depends only on (time,
// origin, seq) — so a run on a tenth-hand cluster is byte-for-byte the
// run it would be on a fresh one. The determinism regression tests pin
// this.

// freeList is a mutex-guarded stack of idle values. Unlike a sync.Pool
// it keeps them across garbage collections and hands back the value put
// last whichever goroutine asks, so a worker that migrates to another P
// between runs still finds its warm cluster instead of rebuilding one.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []T
	new  func() T
}

func (f *freeList[T]) get() T {
	f.mu.Lock()
	n := len(f.idle)
	if n == 0 {
		f.mu.Unlock()
		return f.new()
	}
	x := f.idle[n-1]
	clear(f.idle[n-1:])
	f.idle = f.idle[:n-1]
	f.mu.Unlock()
	return x
}

func (f *freeList[T]) put(x T) {
	f.mu.Lock()
	f.idle = append(f.idle, x)
	f.mu.Unlock()
}

var clusterPool = freeList[*shard.Cluster]{new: shard.New}

// getCluster returns a reset cluster ready to host one run of the given
// shard count. With Observe.Live on, a sharded run's per-shard
// snapshots are published on the live-introspection surface for as long
// as it runs (they are atomics-backed, so the expvar goroutine may
// sample them mid-run without perturbing the simulation); liveKey is
// that registration, "" when there is none.
func getCluster(shards int) (c *shard.Cluster, liveKey string) {
	c = clusterPool.get()
	if Observe.Live && shards > 1 {
		liveKey = obs.PublishLive("cluster", func() any { return c.Snapshots() })
	}
	return c, liveKey
}

// putCluster resets and recycles the cluster once the run's results
// have been copied out — nothing a run's result mapping returns may
// alias it — unless a stall detector tripped on it: a poisoned cluster may
// still be referenced by an abandoned shard driver, so it is leaked
// rather than pooled (Reset would panic on it anyway).
func putCluster(c *shard.Cluster, liveKey string) {
	if liveKey != "" {
		obs.UnpublishLive(liveKey)
	}
	if !c.Poisoned() {
		c.Reset()
		clusterPool.put(c)
	}
}
