// Package perfbench defines the canonical DES/packet hot-path benchmark
// bodies in one list, Suite. The `ebrc -bench` BENCH_<n>.json reporter,
// `go test -bench Suite ./internal/perfbench` and the whole-simulation
// allocation ceilings all walk it, so every recorded number measures an
// identical workload and the perf trajectory stays comparable across
// PRs.
package perfbench

import (
	"testing"

	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/fault"
)

// schedulerFire measures the schedule-one/fire-one cycle — the
// event-loop cost every simulated packet pays at least twice (enqueue at
// the sender, transmit completion at the link).
func schedulerFire(b *testing.B) {
	var s des.Scheduler
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// schedulerTimerChurn measures the cancel/re-arm pattern of the
// protocol timers (TFRC no-feedback, TCP retransmit): every ACK cancels
// a pending timer and schedules a fresh one.
func schedulerTimerChurn(b *testing.B) {
	var s des.Scheduler
	fn := func() {}
	tm := s.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Cancel()
		tm = s.After(2, fn)
		s.After(1, fn)
		s.Step()
	}
}

// schedulerDeepQueue measures push/pop with many pending events (a
// loaded dumbbell keeps hundreds of timers and in-flight packets
// queued), where heap depth dominates.
func schedulerDeepQueue(b *testing.B) {
	var s des.Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(float64(i)+0.5, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(0.25, fn)
		s.Step()
	}
}

// schedulerDeepQueue8K is the scale-out successor of SchedulerDeepQueue:
// the same schedule-ahead/fire pattern against 8192 pending events — the
// pending-set size a 16-hop, 512-flow chain sustains. A comparison-tree
// queue slows by its depth between 1K and 8K pending; the timing wheel's
// per-event cost must stay flat.
func schedulerDeepQueue8K(b *testing.B) {
	var s des.Scheduler
	fn := func() {}
	for i := 0; i < 8192; i++ {
		s.After(float64(i)/8+0.5, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(0.25, fn)
		s.Step()
	}
}

// schedulerFarAnchor is SchedulerDeepQueue behind a far-future anchor:
// one event armed 40 s ahead on an empty scheduler, as a fault plan
// arms its first flap before any traffic starts, then the 1K-pending
// schedule/fire loop with its times scaled by 1/32, so the whole
// pending set stays behind the anchor. Every 1<<14 events the scheduler
// is reset and anchored afresh, long before the clock (about 3 s into a
// round) could reach the anchor. A scheduler whose cursor stayed on the
// anchor would take every insert into its sorted working set, at a cost
// that grows with the pending count; the wheel's must stay flat.
func schedulerFarAnchor(b *testing.B) {
	const round = 1 << 14
	var s des.Scheduler
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%round == 0 {
			s.Reset()
			s.At(40, fn)
			for j := 0; j < 1024; j++ {
				s.At((float64(j)+0.5)/32, fn)
			}
		}
		s.After(0.25/32, fn)
		s.Step()
	}
}

// wholeSim runs a whole-simulation body b.N times. Its ns/op is the
// time one run of fixed simulated work takes; it also reports the
// engine's own counters, events/sec (scheduler events per second of
// wall time) and events/run.
func wholeSim(b *testing.B, run func() uint64) {
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = run()
	}
	b.StopTimer()
	if events > 0 {
		secPerOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(events)/secPerOp, "events/sec")
		b.ReportMetric(float64(events), "events/run")
	}
}

// topoRun and revRun turn a configuration into one simulation run that
// returns its event count.
func topoRun(cfg experiments.TopoSimConfig) func() uint64 {
	return func() uint64 { return experiments.RunTopoSim(cfg).EventsFired }
}

func revRun(cfg experiments.RevSimConfig) func() uint64 {
	return func() uint64 { return experiments.RunRevSim(cfg).EventsFired }
}

// Body is one benchmark of the suite: a scheduler loop, or a
// whole-simulation body that runs one simulation per iteration.
type Body struct {
	// Name is the body's name in `ebrc -bench` reports and
	// BENCH_<n>.json, and its sub-benchmark name under BenchmarkSuite.
	Name string
	// loop is a scheduler body, run as is.
	loop func(*testing.B)
	// sim is a whole-simulation body: one run, returning its event
	// count. ckpt runs it with checkpointing on (see withCheckpoints).
	sim  func() uint64
	ckpt bool
}

// Bench runs the body under b, as testing.Benchmark and b.Run call it.
func (w Body) Bench(b *testing.B) {
	if w.sim == nil {
		w.loop(b)
		return
	}
	if w.ckpt {
		defer withCheckpoints(b.TempDir())()
	}
	wholeSim(b, w.sim)
}

// Suite lists every benchmark body in recording order.
var Suite = []Body{
	{Name: "SchedulerFire", loop: schedulerFire},
	{Name: "SchedulerTimerChurn", loop: schedulerTimerChurn},
	{Name: "SchedulerDeepQueue", loop: schedulerDeepQueue},
	{Name: "SchedulerDeepQueue8K", loop: schedulerDeepQueue8K},
	{Name: "SchedulerFarAnchor", loop: schedulerFarAnchor},
	{Name: "DumbbellSteadyState", sim: dumbbell()},
	{Name: "ParkingLotSteadyState", sim: topoRun(parkingLotConfig())},
	{Name: "ReversePathSteadyState", sim: reversePath()},
	{Name: "DeepChainSteadyState", sim: deepChain()},
	{Name: "ShardedChainBaseline", sim: topoRun(shardedChainConfig(1))},
	{Name: "ShardedChainSteadyState", sim: topoRun(shardedChainConfig(4))},
	{Name: "FaultyChainSteadyState", sim: faultyChain()},
	{Name: "ChurnSteadyState", sim: topoRun(churnSteadyConfig(1))},
	{Name: "CheckpointedChainSteadyState", sim: checkpointedChain(), ckpt: true},
}

// dumbbell is the DumbbellSteadyState body: whole-simulation
// throughput on a mid-size run of the lab testbed profile, 8 TFRC + 8
// TCP flows through the 10 Mb/s DropTail-100 bottleneck for 30
// simulated seconds — large enough that the steady-state event loop
// (packet transmissions, deliveries, acks, protocol timers) dominates
// setup cost.
func dumbbell() func() uint64 {
	cfg := experiments.LabDT100.Scale(0.1, 0).Config(8, 8, 17)
	return func() uint64 { return experiments.RunSim(cfg).EventsFired }
}

// parkingLotConfig is the ParkingLotSteadyState workload:
// whole-simulation throughput on the multi-hop topology path, 4 long
// TFRC + 4 long TCP flows across a three-bottleneck parking-lot chain
// with 2 crossing TCP flows per hop, 30 simulated seconds. Against
// DumbbellSteadyState it isolates the cost of multi-hop forwarding
// (per-hop queueing, route lookups, three links' transmission
// pipelines) on the same zero-allocation primitives.
func parkingLotConfig() experiments.TopoSimConfig {
	return experiments.TopoSimConfig{
		Hops:          3,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         4,
		NTCP:          4,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      25,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
	}
}

// checkpointedChain is the CheckpointedChainSteadyState body: the exact
// ParkingLotSteadyState workload with checkpointing live (the suite
// runs it under withCheckpoints). A full deterministic snapshot of the
// simulation (timer wheel, RNG streams, queue contents, protocol state,
// freelist ledger) is captured and written to disk at the end of warmup
// and every 5 simulated seconds — five snapshots per run. Against
// ParkingLotSteadyState it bounds the overhead of the checkpoint
// subsystem when it is ON; the checkpoint-off cost is pinned at zero by
// ParkingLotSteadyState itself, whose path has no capture branches.
func checkpointedChain() func() uint64 {
	cfg := parkingLotConfig()
	cfg.Label = "bench checkpointed chain"
	return topoRun(cfg)
}

// withCheckpoints turns checkpointing on, a snapshot every 5 simulated
// seconds written to dir, and returns the function that restores the
// previous setting.
func withCheckpoints(dir string) func() {
	old := experiments.Checkpoint
	experiments.Checkpoint = experiments.CheckpointOptions{Every: 5, Dir: dir}
	return func() { experiments.Checkpoint = old }
}

// deepChain is the DeepChainSteadyState body: whole-simulation
// throughput in the scale-out regime the scalechain scenarios sweep, 64
// TFRC + 64 TCP long flows across a 12-hop chain with 2 crossing TCP
// flows per hop (152 flows total), per-hop capacity scaled so each long
// flow keeps the standard share. The pending-event set here is an order
// of magnitude beyond DumbbellSteadyState's, so this body is the
// end-to-end witness for the deep-queue scheduler path and the
// run-arena reuse together.
func deepChain() func() uint64 {
	return topoRun(experiments.TopoSimConfig{
		Hops:          12,
		Capacity:      2.5e6,
		Buffer:        64,
		HopDelay:      0.005,
		AccessDelay:   0.005,
		RevDelay:      0.03,
		NTFRC:         64,
		NTCP:          64,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      8,
		Warmup:        2,
		Seed:          17,
		RevJitter:     0.2,
	})
}

// shardedChainConfig is the workload ShardedChainBaseline and
// ShardedChainSteadyState share: the largest cell of the scalechain
// sweep family (16 hops, 256 TFRC + 256 TCP long flows, 2 crossing TCP
// flows per hop — 544 flows total), per-hop capacity scaled so each
// long flow keeps the standard share. Both bodies run the exact same
// simulation — the determinism contract makes their event counts
// identical — differing only in the shard count, so their events/sec
// ratio is the whole-simulation speedup of the space-parallel engine.
//
// ShardedChainBaseline runs it on the serial engine (one scheduler, one
// event loop), the denominator of that speedup. ShardedChainSteadyState
// splits it across 4 shards, each owning a contiguous slice of the
// chain with its own timing-wheel scheduler, synchronized at the
// cross-shard lookahead horizon. On a multi-core host the shards
// advance concurrently and the ratio measures the speedup; on a
// single-CPU host the shard goroutines take turns and the ratio is the
// engine's coordination overhead instead. The TSV output (and
// events/run) is byte-identical either way.
func shardedChainConfig(shards int) experiments.TopoSimConfig {
	return experiments.TopoSimConfig{
		Hops:          16,
		Capacity:      1e7,
		Buffer:        64,
		HopDelay:      0.005,
		AccessDelay:   0.005,
		RevDelay:      0.03,
		NTFRC:         256,
		NTCP:          256,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      3,
		Warmup:        1,
		Seed:          17,
		RevJitter:     0.2,
		Shards:        shards,
	}
}

// faultyChain is the FaultyChainSteadyState body: whole-simulation
// throughput with the full fault-injection machinery live, the 8-hop
// fault-family chain under a combined plan — a flush-policy outage of
// the mid-chain bottleneck, a Gilbert–Elliott bursty loss process on
// the first hop, and a mid-run capacity renegotiation further down — so
// the per-packet Fault hook, the GE lottery and the Down/Up/SetRate
// event path are all on the measured path. Against DeepChainSteadyState
// it bounds the overhead the fault subsystem adds to a faulted run;
// links without a plan entry keep a nil hook and pay nothing.
func faultyChain() func() uint64 {
	cfg := experiments.TopoSimConfig{
		Hops:          8,
		Capacity:      2.5e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         8,
		NTCP:          8,
		CrossPerHop:   1,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      8,
		Warmup:        2,
		Seed:          17,
		RevJitter:     0.2,
	}
	// Plans are pure data (Arm binds a fresh copy of the mutable state
	// each run), so one plan serves every iteration.
	cfg.Faults = (&fault.Plan{Seed: cfg.Seed}).
		Flap(4, cfg.Warmup+2, cfg.Warmup+3, fault.Flush).
		Burst(0, 400, 25, 0.6).
		Squeeze(6, cfg.Warmup+1, cfg.Warmup+4, 0.5*cfg.Capacity, cfg.Capacity)
	return topoRun(cfg)
}

// churnSteadyConfig is the ChurnSteadyState workload: the parking-lot
// dumbbell under persistent TFRC/TCP flows plus all three churn
// protocols — Poisson TFRC transfers, Weibull TCP mice, a reverse-path
// TCP class over the mirrored chain and a CBR session base. Several
// hundred finite transfers arrive, complete and are reclaimed while the
// persistent flows hold the bottleneck. Against ParkingLotSteadyState
// the body bounds the cost of the arrival engine itself — the
// draw/attach/detach cycle plus the endpoint pools — and its allocs/op
// is the witness that steady-state churn recycles instead of
// allocating: allocations scale with the peak concurrent population,
// not with the number of arrivals served. durScale stretches the
// measured window (and the arrival budget with it), so two runs at
// different scales hold peak population fixed while the arrival count
// doubles — the axis the alloc-flatness test compares.
func churnSteadyConfig(durScale float64) experiments.TopoSimConfig {
	cfg := experiments.TopoSimConfig{
		Hops:          3,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         2,
		NTCP:          2,
		L:             8,
		Comprehensive: true,
		Duration:      15 * durScale,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
		MirrorRev:     true,
	}
	end := cfg.Warmup + cfg.Duration
	maxA := int(1200 * durScale)
	cfg.Churn = []arrivals.Spec{
		{
			Name: "tfrc", Proto: arrivals.TFRC,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
			Stop: end, MaxArrivals: maxA, Seed: 9901,
		},
		{
			Name: "mice", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.04},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
			Stop: end, MaxArrivals: 2 * maxA, Seed: 9902,
		},
		{
			Name: "rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 6},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
			Stop: end, MaxArrivals: maxA, Seed: 9903,
		},
		{
			Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 4},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Stop: end, MaxArrivals: maxA, Seed: 9904,
		},
	}
	return cfg
}

// reversePath is the ReversePathSteadyState body: whole-simulation
// throughput with a routed congested reverse path, 2 TFRC + 2 TCP
// primary flows whose feedback and ACKs cross a real reverse queue
// shared with 2 opposing-direction TCP flows and cross traffic, 25
// simulated seconds. Against DumbbellSteadyState it isolates the cost
// of reverse-path routing (the Rev branch in the forwarding path,
// reverse queues, and the doubled per-packet link traversals of two-way
// traffic).
func reversePath() func() uint64 {
	return revRun(experiments.RevSimConfig{
		Capacity:      1.25e6,
		Buffer:        64,
		FwdDelay:      0.01,
		AccessDelay:   0.005,
		RevExtra:      0.02,
		RevCapacities: []float64{1.25e6},
		RevBuffer:     64,
		RevHopDelay:   0.005,
		NTFRC:         2,
		NTCP:          2,
		BackTCP:       2,
		RevCrossLoad:  0.3,
		L:             8,
		Comprehensive: true,
		Duration:      20,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
	})
}
