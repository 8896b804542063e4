package shard

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStallBudget is the wall-clock time a shard may spend waiting
// at a window barrier before the stall detector declares the run hung
// and aborts with per-shard diagnostics (Cluster.StallBudget overrides
// it; negative disables detection). One window of one shard is at most
// a few milliseconds of event work on any graph this repo runs, so half
// a minute of waiting means a peer is not coming back — a deadlocked or
// runaway shard — and hanging silently would bury the evidence.
const DefaultStallBudget = 30 * time.Second

// Run advances the whole cluster to the given simulated time, exactly
// like des.Scheduler.RunUntil on a serial engine: every event with
// timestamp <= until fires and all clocks finish at until. Between Run
// calls the cluster is barrier-aligned — stats may be read and reset,
// and CheckLeaks holds.
//
// With one effective shard Run is plain RunUntil. With several, a
// goroutine per shard advances through lookahead windows of the horizon
// computed at the first Run (see seal) behind a sense-reversing
// barrier; every shard executes the same windows and drains bundles in
// the same (src-shard, seq) merge order at any GOMAXPROCS, so the
// results are bit-identical to the serial engine's.
func (c *Cluster) Run(until float64) {
	c.seal()
	if c.k == 1 {
		c.shards[0].sched.RunUntil(until)
		return
	}
	c.runWindows(until)
}

// drain hands every bundle addressed to dst from the given parity to
// dst's domain, in (src-shard, emission-seq) order — the deterministic
// merge order. The pending deliveries acquire dst-local sequence
// numbers in drain order, so same-instant arrivals keep this order when
// they fire.
func (c *Cluster) drain(dst *Shard, parity int) {
	for src := 0; src < c.k; src++ {
		box := &c.shards[src].out[parity][dst.id]
		for i := range *box {
			m := &(*box)[i]
			dst.Accept(m.kind, &m.pkt, m.at, m.origin)
		}
		*box = (*box)[:0]
	}
}

// barrier is a reusable sense-reversing spin barrier. Arrivals count
// down; the last arrival flips the generation, releasing the waiters.
// Waiters yield the processor while spinning so the barrier stays
// livelock-free even when goroutines outnumber CPUs.
//
// A waiter that spins past the stall budget trips the stalled flag;
// from then on every wait returns false immediately (the barrier is
// dead, the run is aborting) and the arrival accounting is abandoned —
// acceptable, since no further window may execute on a tripped barrier.
type barrier struct {
	n       int32
	waiting atomic.Int32
	gen     atomic.Uint32
	stalled atomic.Bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	b.waiting.Store(int32(n))
	return b
}

// wait blocks until all n parties arrive, yielding while it spins. With
// a positive budget it measures its own wall-clock wait and trips the
// stalled flag when the budget runs out. It returns false when the
// barrier is tripped — the caller must abandon the run, not drain.
func (b *barrier) wait(budget time.Duration) bool {
	if b.stalled.Load() {
		return false
	}
	gen := b.gen.Load()
	if b.waiting.Add(-1) == 0 {
		b.waiting.Store(b.n)
		b.gen.Add(1) // release: publishes every pre-barrier write
		return true
	}
	var deadline time.Time
	for i := 0; b.gen.Load() == gen; i++ {
		if b.stalled.Load() {
			return false
		}
		if budget > 0 && i&255 == 255 {
			// Check the wall clock every few hundred yields: cheap
			// enough to keep the fast path syscall-free, frequent
			// enough to catch a stall within microseconds of budget.
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(budget)
			} else if now.After(deadline) {
				b.stalled.Store(true)
				return false
			}
		}
		runtime.Gosched()
	}
	return true
}

// runWindows drives one goroutine per shard. All goroutines compute
// the identical window sequence (pure float arithmetic from the same
// inputs), so their barrier arrivals stay aligned. One barrier per
// window suffices: while window w+1 runs against parity (w+1)%2, each
// shard drains the parity-w%2 bundles addressed to it — the (src, dst)
// bundle slots are disjoint per drainer, and the next barrier closes
// the window before parity w%2 is written again.
//
// The barrier is watched: each shard publishes its barrier-aligned
// progress (window, clock, pending events, ledgers) before waiting, and
// a wait that exceeds the stall budget trips the barrier. Every
// reachable driver then abandons the run, the cluster is poisoned
// (never returned to an arena pool — a stuck driver may still hold it)
// and runWindows panics with per-shard diagnostics instead of hanging;
// the panic surfaces as a diagnosable job error through the runner's
// recover. The stuck driver itself stays wherever it is stuck — its
// goroutine is abandoned, the alternative being a silent deadlock.
func (c *Cluster) runWindows(until float64) {
	budget := c.StallBudget
	if budget == 0 {
		budget = DefaultStallBudget
	}
	var wg sync.WaitGroup
	bar := newBarrier(c.k)
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			b := s.sched.Now()
			parity := 0
			window := 0
			for {
				next := b + c.horizon
				last := next >= until
				s.wbuf = parity
				if hook := c.stallHook; hook != nil {
					hook(s.id, window)
				}
				if last {
					s.sched.RunUntil(until)
				} else {
					s.sched.RunBefore(next)
				}
				// A cut link has no delivery event on this shard to
				// settle it: settling it here puts every packet that
				// started serializing in the window into the window's
				// bundles before the barrier.
				for _, l := range s.cut {
					l.Settle()
				}
				s.publishProgress(window)
				waitStart := time.Now()
				ok := bar.wait(budget)
				s.progWaitNs.Add(time.Since(waitStart).Nanoseconds())
				if !ok {
					return
				}
				c.drain(s, parity)
				if last {
					// A packet handed off between runs joins the bundle
					// the next run's first window drains.
					s.wbuf = 0
					return
				}
				b = next
				parity ^= 1
				window++
			}
		}(s)
	}
	if budget <= 0 {
		wg.Wait()
		return
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			if bar.stalled.Load() {
				c.poisoned = true
				panic(c.stallReport(budget, until))
			}
			return
		case <-tick.C:
			if bar.stalled.Load() {
				c.poisoned = true
				panic(c.stallReport(budget, until))
			}
		}
	}
}

// stallReport renders the per-shard diagnostics of a tripped barrier
// from the barrier-published progress atomics: which shards arrived at
// which window, their clocks, pending event counts and ledgers — enough
// to see who stopped making progress and what it was holding.
func (c *Cluster) stallReport(budget time.Duration, until float64) string {
	var max int64
	for _, s := range c.shards {
		if w := s.progWindow.Load(); w > max {
			max = w
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard: barrier stall: a shard made no progress within %v (horizon %v, target t=%v); aborting with per-shard diagnostics:",
		budget, c.horizon, until)
	for _, s := range c.shards {
		w := s.progWindow.Load()
		state := "arrived"
		if w < max {
			state = "STALLED"
		}
		fmt.Fprintf(&sb, "\n  shard %d: window %d clock=%.6f pending-events=%d freelist-ledger=%d (%s)",
			s.id, w, math.Float64frombits(s.progClock.Load()),
			s.progPend.Load(), s.progLedger.Load(), state)
	}
	return sb.String()
}
