package shard_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/tfrc"
)

// TestSnapshotProgressMonotonic pins the progress-atomics contract
// behind Cluster.Snapshots(): a sampler goroutine polls the 4-shard
// chain while the goroutine-per-shard barrier driver runs it — the
// exact access pattern of the live expvar endpoint — and every
// cumulative field of a shard's snapshot (window, clock, fired events,
// handoffs, barrier wait) must only ever advance. The occupancy fields
// are not monotone but must stay non-negative, and the final snapshot
// must show every shard at the same completed window.
func TestSnapshotProgressMonotonic(t *testing.T) {
	c := shard.New()
	buildChain(c)
	c.Partition(4)
	if c.Shards() != 4 {
		t.Fatalf("chain split into %d shards, want 4", c.Shards())
	}
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		ss, rs := c.FlowEnv(1 + f)
		snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0.05*float64(f), snd.Start)
	}

	stop := make(chan struct{})
	violations := make(chan string, 16)
	report := func(msg string) {
		select {
		case violations <- msg:
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var samples int
	go func() {
		defer wg.Done()
		prev := c.Snapshots()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := c.Snapshots()
			for i := range cur {
				p, s := prev[i], cur[i]
				if s.Window < p.Window || s.Clock < p.Clock || s.Fired < p.Fired ||
					s.Cascaded < p.Cascaded || s.Handoffs < p.Handoffs ||
					s.BarrierWait < p.BarrierWait {
					report(fmt.Sprintf("shard %d went backwards: %+v -> %+v", i, p, s))
				}
				if s.Pending < 0 || s.Ledger < 0 {
					report(fmt.Sprintf("shard %d published negative occupancy: %+v", i, s))
				}
			}
			prev = cur
			samples++
			runtime.Gosched()
		}
	}()

	c.Run(chainDur)
	close(stop)
	wg.Wait()
	close(violations)
	for msg := range violations {
		t.Error(msg)
	}
	if samples == 0 {
		t.Log("sampler never ran concurrently; monotonicity checked on final state only")
	}

	final := c.Snapshots()
	for i, s := range final {
		if s.Shard != i {
			t.Errorf("snapshot %d labeled shard %d", i, s.Shard)
		}
		if s.Window == 0 {
			t.Errorf("shard %d never published a window", i)
		}
		if s.Window != final[0].Window {
			t.Errorf("shard %d ended at window %d, shard 0 at %d (barrier must align them)",
				i, s.Window, final[0].Window)
		}
		if s.Fired == 0 {
			t.Errorf("shard %d published zero fired events", i)
		}
		if s.Clock <= 0 || s.Clock > chainDur {
			t.Errorf("shard %d published clock %v outside (0, %v]", i, s.Clock, chainDur)
		}
	}
	if err := c.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotSteppedRun asserts the barrier-aligned view between
// stepped Run calls: each step must advance every shard's clock and
// fire events without ever going backwards, and the published clock
// tracks the step horizon. (Window counts restart per Run call — they
// index windows within the current drive, not across drives.)
func TestSnapshotSteppedRun(t *testing.T) {
	c := shard.New()
	buildChain(c)
	c.Partition(4)
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(2000 + f)
		ss, rs := c.FlowEnv(1 + f)
		snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0, snd.Start)
	}
	prev := c.Snapshots()
	steps := 4
	for k := 1; k <= steps; k++ {
		horizon := chainDur * float64(k) / float64(steps)
		c.Run(horizon)
		cur := c.Snapshots()
		for i := range cur {
			p, s := prev[i], cur[i]
			if s.Window == 0 {
				t.Errorf("step %d shard %d: no window published", k, i)
			}
			if s.Clock <= p.Clock {
				t.Errorf("step %d shard %d: clock stuck at %v", k, i, s.Clock)
			}
			if s.Clock > horizon {
				t.Errorf("step %d shard %d: clock %v beyond horizon %v", k, i, s.Clock, horizon)
			}
			if s.Fired < p.Fired {
				t.Errorf("step %d shard %d: fired went backwards (%d -> %d)", k, i, p.Fired, s.Fired)
			}
		}
		prev = cur
	}
}
