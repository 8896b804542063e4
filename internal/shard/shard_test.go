package shard_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// builder is the build surface topology.Network and shard.Cluster
// share, so one scenario definition drives a plain network and a
// cluster alike.
type builder interface {
	AddNode(name string) topology.NodeID
	AddLink(from, to topology.NodeID, rate, delay float64, queue netsim.Queue) topology.LinkID
	SetDefaultRoute(hops ...topology.LinkID)
	SetReverseJitter(j float64, seed uint64)
	AttachSink(flow int, hops ...topology.LinkID)
	SetRoute(flow int, hops ...topology.LinkID)
}

// chainSpec is a 4-node, 3-hop chain with a tight middle queue (to
// force drops, including on cut links when partitioned), long TFRC and
// TCP flows end to end, a crossing TCP flow on the middle hop, and
// Pareto cross traffic over the last two hops.
const (
	chainRate  = 1.25e6 / 4
	chainDelay = 0.005
	chainDur   = 8.0
)

func buildChain(b builder) []topology.LinkID {
	n0 := b.AddNode("n0")
	n1 := b.AddNode("n1")
	n2 := b.AddNode("n2")
	n3 := b.AddNode("n3")
	l0 := b.AddLink(n0, n1, chainRate, chainDelay, netsim.NewDropTail(20))
	l1 := b.AddLink(n1, n2, chainRate, chainDelay, netsim.NewDropTail(8))
	l2 := b.AddLink(n2, n3, chainRate, chainDelay, netsim.NewDropTail(20))
	b.SetDefaultRoute(l0, l1, l2)
	b.SetReverseJitter(0.2, 99)
	b.SetRoute(40, l1) // crossing TCP over the middle hop only
	return []topology.LinkID{l0, l1, l2}
}

type flowStats struct {
	throughput float64
	lossRate   float64
	delivered  int64
}

type runResult struct {
	flows []flowStats
	fired uint64
}

// runSerial executes the chain on the serial engine.
func runSerial(t *testing.T) runResult {
	t.Helper()
	var sched des.Scheduler
	net := topology.New(&sched)
	hops := buildChain(net)
	var tf []*tfrc.Sender
	var tc []*tcp.Sender
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		snd, _ := tfrc.NewFlow(&sched, net, 1+f, cfg, 0.005, 0.02)
		sched.At(0.05*float64(f), snd.Start)
		tf = append(tf, snd)
	}
	for f := 0; f < 2; f++ {
		snd, _ := tcp.NewFlow(&sched, net, 10+f, tcp.DefaultConfig(), 0.005, 0.02)
		sched.At(0.03*float64(f)+0.01, snd.Start)
		tc = append(tc, snd)
	}
	xsnd, _ := tcp.NewFlow(&sched, net, 40, tcp.DefaultConfig(), 0, 0.015)
	sched.At(0.02, xsnd.Start)
	net.AttachSink(50, hops[1], hops[2])
	ct := netsim.NewCrossTraffic(&sched, net, 50, chainRate/4, 10, 1.5, 0.05, 1000, 7)
	sched.At(0.1, ct.Start)
	sched.RunUntil(chainDur)
	res := runResult{fired: sched.Fired()}
	for i, snd := range tf {
		res.flows = append(res.flows, flowStats{
			throughput: snd.Stats().Throughput,
			lossRate:   snd.Stats().LossEventRate,
			delivered:  net.Delivered(1 + i),
		})
	}
	for i, snd := range tc {
		st := snd.Stats()
		res.flows = append(res.flows, flowStats{
			throughput: st.Throughput,
			lossRate:   st.LossEventRate,
			delivered:  net.Delivered(10 + i),
		})
	}
	if err := net.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	return res
}

// runSharded executes the identical chain on a cluster of k shards.
func runSharded(t *testing.T, k int) (runResult, *shard.Cluster) {
	t.Helper()
	c := shard.New()
	hops := buildChain(c)
	c.Partition(k)
	var tf []*tfrc.Sender
	var tc []*tcp.Sender
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		ss, rs := c.FlowEnv(1 + f)
		snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0.05*float64(f), snd.Start)
		tf = append(tf, snd)
	}
	for f := 0; f < 2; f++ {
		ss, rs := c.FlowEnv(10 + f)
		snd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 10+f, tcp.DefaultConfig(), 0.005, 0.02)
		ss.Sched().At(0.03*float64(f)+0.01, snd.Start)
		tc = append(tc, snd)
	}
	ss, rs := c.FlowEnv(40)
	xsnd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 40, tcp.DefaultConfig(), 0, 0.015)
	ss.Sched().At(0.02, xsnd.Start)
	c.AttachSink(50, hops[1], hops[2])
	sink := c.SinkEnv(hops[1], hops[2])
	ct := netsim.NewCrossTraffic(sink.Sched(), sink, 50, chainRate/4, 10, 1.5, 0.05, 1000, 7)
	sink.Sched().At(0.1, ct.Start)
	c.Run(chainDur)
	res := runResult{fired: c.Fired()}
	for i, snd := range tf {
		res.flows = append(res.flows, flowStats{
			throughput: snd.Stats().Throughput,
			lossRate:   snd.Stats().LossEventRate,
			delivered:  c.Delivered(1 + i),
		})
	}
	for i, snd := range tc {
		st := snd.Stats()
		res.flows = append(res.flows, flowStats{
			throughput: st.Throughput,
			lossRate:   st.LossEventRate,
			delivered:  c.Delivered(10 + i),
		})
	}
	return res, c
}

func requireEqual(t *testing.T, label string, serial, sharded runResult) {
	t.Helper()
	if serial.fired != sharded.fired {
		t.Errorf("%s: events fired: serial %d, sharded %d", label, serial.fired, sharded.fired)
	}
	for i := range serial.flows {
		a, b := serial.flows[i], sharded.flows[i]
		if a != b {
			t.Errorf("%s: flow %d diverged: serial %+v, sharded %+v", label, i, a, b)
		}
	}
}

// TestSerialEquivalence is the core determinism contract: the sharded
// execution reproduces the serial engine bit for bit — throughput,
// loss-event rates, per-flow deliveries and the total event count — at
// every shard count, with drops happening on the tight middle hop
// (which becomes a cut link at k >= 2). The pass runs with every shard
// goroutine on one processor (GOMAXPROCS=1), so the windows interleave
// the same way on any host.
func TestSerialEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := runSerial(t)
	for _, k := range []int{1, 2, 3, 4} {
		res, c := runSharded(t, k)
		requireEqual(t, fmt.Sprintf("GOMAXPROCS=1 k=%d", k), serial, res)
		if err := c.CheckLeaks(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		if k >= 2 && c.Shards() < 2 {
			t.Fatalf("k=%d produced %d shards; the chain must split", k, c.Shards())
		}
	}
}

// TestParallelDriverEquivalence runs the goroutine-per-shard barrier
// driver with its shards on several processors (at least two, so they
// run in parallel under -race on any host) and requires the serial
// engine's bytes exactly.
func TestParallelDriverEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	serial := runSerial(t)
	procs := runtime.GOMAXPROCS(0)
	for _, k := range []int{2, 4} {
		res, c := runSharded(t, k)
		requireEqual(t, fmt.Sprintf("GOMAXPROCS=%d k=%d", procs, k), serial, res)
		if err := c.CheckLeaks(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestPerShardLeakLedgers asserts the freelist protocol per shard, not
// just globally: after a run with drops on a cut link, every shard's
// own Outstanding must equal its own InNetwork (a packet crossing a cut
// is returned to the source pool at handoff and re-issued from the
// destination pool at the barrier, so neither ledger double-counts).
func TestPerShardLeakLedgers(t *testing.T) {
	_, c := runSharded(t, 3)
	if c.Shards() < 2 {
		t.Fatal("chain did not split")
	}
	drops := int64(0)
	for i := 0; i < 3; i++ {
		drops += c.Link(topology.LinkID(i)).Queue().(*netsim.DropTail).Drops
	}
	if drops == 0 {
		t.Fatal("workload produced no drops; the leak assertion would be vacuous")
	}
	for i := 0; i < c.Shards(); i++ {
		s := c.Shard(i)
		if out, in := s.Outstanding(), int64(s.InNetwork()); out != in {
			t.Errorf("shard %d: Outstanding %d != InNetwork %d", i, out, in)
		}
	}
	if err := c.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestZeroDelayColocation pins the partitioning rule: endpoints of a
// zero-delay link provide no lookahead and must land in one shard.
func TestZeroDelayColocation(t *testing.T) {
	c := shard.New()
	n0 := c.AddNode("a")
	n1 := c.AddNode("b")
	n2 := c.AddNode("c")
	l0 := c.AddLink(n0, n1, 1e6, 0, netsim.NewDropTail(8)) // zero delay: must not cut
	l1 := c.AddLink(n1, n2, 1e6, 0.01, netsim.NewDropTail(8))
	c.SetDefaultRoute(l0, l1)
	c.Partition(3)
	if c.Shards() != 2 {
		t.Fatalf("shards = %d, want 2 (zero-delay endpoints co-located)", c.Shards())
	}
	ss, rs := c.FlowEnv(1)
	if ss == rs {
		t.Fatal("sender and receiver shards identical; positive-delay link should have been cut")
	}
}

// TestClusterReset checks the arena property: a cluster Reset and
// rebuilt in place reproduces a fresh cluster exactly.
func TestClusterReset(t *testing.T) {
	fresh, _ := runSharded(t, 2)

	c := shard.New()
	buildChain(c)
	c.Partition(4)
	ss, rs := c.FlowEnv(1)
	snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, tfrc.DefaultConfig(), 0.005, 0.02)
	ss.Sched().At(0, snd.Start)
	c.Run(1.5)
	c.Reset()
	if c.Shards() != 0 {
		t.Fatal("Shards() nonzero after Reset")
	}

	// Rebuild the full chain workload in the recycled cluster by hand,
	// mirroring runSharded's k=2 build.
	hops := buildChain(c)
	c.Partition(2)
	var tf []*tfrc.Sender
	var tc []*tcp.Sender
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		ss, rs := c.FlowEnv(1 + f)
		s2, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0.05*float64(f), s2.Start)
		tf = append(tf, s2)
	}
	for f := 0; f < 2; f++ {
		ss, rs := c.FlowEnv(10 + f)
		s2, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 10+f, tcp.DefaultConfig(), 0.005, 0.02)
		ss.Sched().At(0.03*float64(f)+0.01, s2.Start)
		tc = append(tc, s2)
	}
	ss, rs = c.FlowEnv(40)
	xsnd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 40, tcp.DefaultConfig(), 0, 0.015)
	ss.Sched().At(0.02, xsnd.Start)
	c.AttachSink(50, hops[1], hops[2])
	sink := c.SinkEnv(hops[1], hops[2])
	ct := netsim.NewCrossTraffic(sink.Sched(), sink, 50, chainRate/4, 10, 1.5, 0.05, 1000, 7)
	sink.Sched().At(0.1, ct.Start)
	c.Run(chainDur)
	reused := runResult{fired: c.Fired()}
	for i, s2 := range tf {
		reused.flows = append(reused.flows, flowStats{
			throughput: s2.Stats().Throughput,
			lossRate:   s2.Stats().LossEventRate,
			delivered:  c.Delivered(1 + i),
		})
	}
	for i, s2 := range tc {
		st := s2.Stats()
		reused.flows = append(reused.flows, flowStats{
			throughput: st.Throughput,
			lossRate:   st.LossEventRate,
			delivered:  c.Delivered(10 + i),
		})
	}
	requireEqual(t, "reused", fresh, reused)
	if err := c.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestPhaseBoundaries checks that multi-phase driving (warmup, reset,
// measure — the experiments pattern) stays serial-identical: the phase
// boundary is inclusive like des.RunUntil, and stats read between Run
// calls observe a barrier-aligned cluster.
func TestPhaseBoundaries(t *testing.T) {
	var sched des.Scheduler
	net := topology.New(&sched)
	buildChain(net)
	cfg := tfrc.DefaultConfig()
	cfg.Seed = 4242
	snd, _ := tfrc.NewFlow(&sched, net, 1, cfg, 0.005, 0.02)
	sched.At(0, snd.Start)
	sched.RunUntil(2)
	snd.ResetStats()
	sched.RunUntil(chainDur)
	want := snd.Stats().Throughput

	c := shard.New()
	buildChain(c)
	c.Partition(2)
	ss, rs := c.FlowEnv(1)
	snd2, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, cfg, 0.005, 0.02)
	ss.Sched().At(0, snd2.Start)
	c.Run(2)
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("mid-phase: %v", err)
	}
	snd2.ResetStats()
	c.Run(chainDur)
	if got := snd2.Stats().Throughput; got != want {
		t.Fatalf("phase-split throughput: sharded %v, serial %v", got, want)
	}
}

// TestLiveAttachValidatesRoutes: a run-time attach goes through the
// network's one attach path, so a bad route is rejected with the serial
// engine's message on a cluster of any shard count.
func TestLiveAttachValidatesRoutes(t *testing.T) {
	// n0 -l0-> n1 -l1-> n2, and back n2 -l2-> n1 -l3-> n0.
	build := func(b interface {
		AddNode(name string) topology.NodeID
		AddLink(from, to topology.NodeID, rate, delay float64, queue netsim.Queue) topology.LinkID
	}) {
		n := []topology.NodeID{b.AddNode("n0"), b.AddNode("n1"), b.AddNode("n2")}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 0}} {
			b.AddLink(n[e[0]], n[e[1]], chainRate, chainDelay, netsim.NewDropTail(8))
		}
	}
	panicOf := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return ""
	}
	e := netsim.EndpointFunc(func(*netsim.Packet) {})
	for _, tc := range []struct {
		name     string
		fwd, rev []topology.LinkID
	}{
		{"reverse route ends short of the sender", []topology.LinkID{0, 1}, []topology.LinkID{2}},
		{"non-contiguous forward route", []topology.LinkID{1, 0}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sched des.Scheduler
			net := topology.New(&sched)
			build(net)
			want := panicOf(func() { net.AttachFlowOn(3, e, e, tc.fwd, tc.rev, 0, 0.01) })
			if !strings.HasPrefix(want, "topology: ") {
				t.Fatalf("serial engine accepted the attach (recovered %q)", want)
			}
			for _, k := range []int{1, 2} {
				c := shard.New()
				build(c)
				c.Partition(k)
				if c.Shards() != k {
					t.Fatalf("k=%d: graph split into %d shards", k, c.Shards())
				}
				c.ReserveFlows(8)
				if got := panicOf(func() { c.AttachLive(3, e, e, tc.fwd, tc.rev, 0, 0.01) }); got != want {
					t.Errorf("k=%d: live attach recovered %q, want %q", k, got, want)
				}
			}
		})
	}
}

// A packet sent into a cut link between Run calls is handed off at once,
// outside any window, and must still reach its destination on time: the
// next run's first window drains it, whatever parity the previous run
// ended on (Run(0.01) in 5 ms windows ends on parity 1).
func TestCutLinkSendBetweenRuns(t *testing.T) {
	send := func(l *netsim.Link, get func() *netsim.Packet) {
		for i := 0; i < 3; i++ {
			p := get()
			p.Flow, p.Seq, p.Size, p.Hop = 5, int64(i), 1000, 1
			l.Send(p)
		}
	}
	var sched des.Scheduler
	net := topology.New(&sched)
	hops := buildChain(net)
	net.AttachSink(5, hops...)
	sched.RunUntil(0.01)
	send(net.Link(hops[1]), net.GetPacket)
	sched.RunUntil(0.1)
	want := net.Delivered(5)

	c := shard.New()
	buildChain(c)
	c.Partition(2)
	c.AttachSink(5, hops...)
	if c.LinkSched(hops[1]) != c.Shard(0).Sched() || c.LinkSched(hops[2]) != c.Shard(1).Sched() {
		t.Fatal("the middle hop is not the cut link from shard 0 to shard 1")
	}
	c.Run(0.01)
	send(c.Link(hops[1]), c.Shard(0).GetPacket)
	c.Run(0.1)
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if got := c.Delivered(5); got != want || got != 3 {
		t.Fatalf("delivered %d on the cluster, %d serially, want 3", got, want)
	}
}
