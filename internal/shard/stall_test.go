package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// stallCluster builds a minimal two-shard cluster: two nodes, one cut
// link, Pareto cross traffic keeping the event stream alive. The hook
// and budget are installed before the run.
func stallCluster(budget time.Duration, hook func(shard, window int)) *Cluster {
	c := New()
	n0 := c.AddNode("n0")
	n1 := c.AddNode("n1")
	l := c.AddLink(n0, n1, 1.25e6, 0.005, netsim.NewDropTail(32))
	c.Partition(2)
	c.AttachSink(7, l)
	c.StallBudget = budget
	c.stallHook = hook
	sink := c.SinkEnv(l)
	ct := netsim.NewCrossTraffic(sink.Sched(), sink, 7, 2.5e5, 10, 1.5, 0.05, 1000, 11)
	sink.Sched().At(0, ct.Start)
	return c
}

// A shard that stops progressing must trip the watchdog: the run aborts
// with a panic carrying per-shard diagnostics instead of hanging, and
// the cluster is poisoned against reuse.
func TestStallDetectorFires(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock watchdog test")
	}
	c := stallCluster(50*time.Millisecond, func(shard, window int) {
		if shard == 1 && window == 3 {
			time.Sleep(600 * time.Millisecond)
		}
	})
	var report string
	func() {
		defer func() {
			if r := recover(); r != nil {
				report = fmt.Sprint(r)
			}
		}()
		c.Run(1.0)
	}()
	if report == "" {
		t.Fatal("stalled run returned instead of aborting")
	}
	for _, want := range []string{"barrier stall", "STALLED", "shard 0", "shard 1",
		"clock=", "pending-events=", "freelist-ledger="} {
		if !strings.Contains(report, want) {
			t.Errorf("stall report missing %q:\n%s", want, report)
		}
	}
	if !c.Poisoned() {
		t.Error("cluster not poisoned after a tripped barrier")
	}
	// Give the abandoned driver time to wake and bail before the test
	// binary exits, so nothing fires into a torn-down world.
	time.Sleep(700 * time.Millisecond)
}

// A slow but progressing shard must NOT trip the watchdog: the budget
// bounds the wait at one barrier, not the whole run.
func TestStallDetectorQuietOnSlowProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock watchdog test")
	}
	c := stallCluster(250*time.Millisecond, func(shard, window int) {
		if shard == 1 {
			time.Sleep(10 * time.Millisecond) // ~40x the budget in total, spread over windows
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(0.5) // 100 windows at the 5 ms horizon
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slow-but-progressing run did not finish")
	}
	if c.Poisoned() {
		t.Fatal("watchdog fired on a progressing run")
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// With detection disabled (negative budget) the legacy spin path is
// untouched; a normal run completes and stays clean.
func TestStallDetectorDisabled(t *testing.T) {
	c := stallCluster(-1, nil)
	c.Run(0.5)
	if c.Poisoned() {
		t.Fatal("poisoned without a watchdog")
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}
