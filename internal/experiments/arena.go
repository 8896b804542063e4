package experiments

import (
	"sync"

	"repro/internal/des"
	"repro/internal/topology"
)

// simArena bundles the per-run simulation state that is expensive to
// rebuild from scratch: the scheduler (wheel buckets, slot table,
// freelist) and the network shell (packet pool, delivery pool,
// flow-state pool). RunSim, RunTopoSim and RunRevSim draw an arena,
// Reset it, build the run's topology in place, and return it — so a
// replication pays for its protocol state only, not for the simulator
// substrate. Idle arenas wait on a free list: a sweep keeps as many
// arenas as it has runs in flight, and every later run starts warm.
//
// Reuse is invisible to results: the scheduler and network Resets
// restore the exact zero-value semantics (clock 0, empty graph, fresh
// counters), every packet is zeroed on Get, and event order depends
// only on (time, seq) — so a run on a tenth-hand arena is byte-for-byte
// the run it would be on a fresh one. The determinism regression tests
// pin this.
type simArena struct {
	sched des.Scheduler
	net   *topology.Network
}

// freeList is a mutex-guarded stack of idle values. Unlike a sync.Pool
// it keeps them across garbage collections and hands back the value put
// last whichever goroutine asks, so a worker that migrates to another P
// between runs still finds its warm arena instead of rebuilding one.
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

var arenaPool = freeList[*simArena]{new: func() *simArena {
	a := &simArena{}
	a.net = topology.New(&a.sched)
	return a
}}

// getArena returns a reset arena ready to host one run.
func getArena() *simArena {
	a := arenaPool.get()
	a.sched.Reset()
	a.net.Reset()
	return a
}

// putArena recycles the arena once the run's results have been copied
// out. Nothing returned by a Run* function may alias arena memory.
func putArena(a *simArena) { arenaPool.put(a) }
