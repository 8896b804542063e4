// Package perfbench defines the canonical DES/packet hot-path benchmark
// bodies. The `go test -bench` wrappers (internal/des and
// internal/experiments) and the `ebrc -bench` BENCH_<n>.json reporter
// all run these same functions, so every recorded number measures an
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

// SchedulerFire measures the schedule-one/fire-one cycle — the
// event-loop cost every simulated packet pays at least twice (enqueue at
// the sender, transmit completion at the link).
func SchedulerFire(b *testing.B) {
	var s des.Scheduler
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// SchedulerTimerChurn measures the cancel/re-arm pattern of the
// protocol timers (TFRC no-feedback, TCP retransmit): every ACK cancels
// a pending timer and schedules a fresh one.
func SchedulerTimerChurn(b *testing.B) {
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

// SchedulerDeepQueue measures push/pop with many pending events (a
// loaded dumbbell keeps hundreds of timers and in-flight packets
// queued), where heap depth dominates.
func SchedulerDeepQueue(b *testing.B) {
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

// SchedulerDeepQueue8K is the scale-out successor of SchedulerDeepQueue:
// the same schedule-ahead/fire pattern against 8192 pending events — the
// pending-set size a 16-hop, 512-flow chain sustains. A comparison-tree
// queue slows by its depth between 1K and 8K pending; the timing wheel's
// per-event cost must stay flat.
func SchedulerDeepQueue8K(b *testing.B) {
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

// SchedulerFarAnchor is SchedulerDeepQueue behind a far-future anchor:
// one event armed 40 s ahead on an empty scheduler, as a fault plan
// arms its first flap before any traffic starts, then the 1K-pending
// schedule/fire loop with its times scaled by 1/32, so the whole
// pending set stays behind the anchor. Every 1<<14 events the scheduler
// is reset and anchored afresh, long before the clock (about 3 s into a
// round) could reach the anchor. A scheduler whose cursor stayed on the
// anchor would take every insert into its sorted working set, at a cost
// that grows with the pending count; the wheel's must stay flat.
func SchedulerFarAnchor(b *testing.B) {
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

// wholeSim runs a whole-simulation body b.N times and reports
// events/sec (scheduler events per second of wall time, the end-to-end
// number the hot-path optimization targets) and events/run (divide
// allocs/op by it for allocations per simulated event).
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

// wholeSims lists the whole-simulation bodies by their `ebrc -bench`
// names, each as one simulation run; ckpt marks the body that runs with
// checkpointing on (see withCheckpoints).
var wholeSims = []struct {
	name string
	run  func() uint64
	ckpt bool
}{
	{"DumbbellSteadyState", dumbbell(), false},
	{"ParkingLotSteadyState", topoRun(parkingLotConfig()), false},
	{"ReversePathSteadyState", reversePath(), false},
	{"DeepChainSteadyState", deepChain(), false},
	{"ShardedChainBaseline", topoRun(shardedChainConfig(1)), false},
	{"ShardedChainSteadyState", topoRun(shardedChainConfig(4)), false},
	{"FaultyChainSteadyState", faultyChain(), false},
	{"ChurnSteadyState", topoRun(churnSteadyConfig(1)), false},
	{"CheckpointedChainSteadyState", checkpointedChain(), true},
}

// DumbbellSteadyState measures whole-simulation throughput on a
// mid-size run of the lab testbed profile: 8 TFRC + 8 TCP flows through
// the 10 Mb/s DropTail-100 bottleneck for 30 simulated seconds — large
// enough that the steady-state event loop (packet transmissions,
// deliveries, acks, protocol timers) dominates setup cost.
func DumbbellSteadyState(b *testing.B) { wholeSim(b, dumbbell()) }

func dumbbell() func() uint64 {
	cfg := experiments.LabDT100.Scale(0.1, 0).Config(8, 8, 17)
	return func() uint64 { return experiments.RunSim(cfg).EventsFired }
}

// ParkingLotSteadyState measures whole-simulation throughput on the
// multi-hop topology path: 4 long TFRC + 4 long TCP flows across a
// three-bottleneck parking-lot chain with 2 crossing TCP flows per hop,
// 30 simulated seconds. Against DumbbellSteadyState it isolates the
// cost of multi-hop forwarding (per-hop queueing, route lookups, three
// links' transmission pipelines) on the same zero-allocation
// primitives.
func ParkingLotSteadyState(b *testing.B) { wholeSim(b, topoRun(parkingLotConfig())) }

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

// CheckpointedChainSteadyState runs the exact ParkingLotSteadyState
// workload with checkpointing live: a full deterministic snapshot of
// the simulation (timer wheel, RNG streams, queue contents, protocol
// state, freelist ledger) is captured and written to disk at the end of
// warmup and every 5 simulated seconds — five snapshots per run.
// Against ParkingLotSteadyState it bounds the overhead of the
// checkpoint subsystem when it is ON; the checkpoint-off cost is pinned
// at zero by ParkingLotSteadyState itself, whose path has no capture
// branches.
func CheckpointedChainSteadyState(b *testing.B) {
	defer withCheckpoints(b.TempDir())()
	wholeSim(b, checkpointedChain())
}

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

// DeepChainSteadyState measures whole-simulation throughput in the
// scale-out regime the scalechain scenarios sweep: 64 TFRC + 64 TCP
// long flows across a 12-hop chain with 2 crossing TCP flows per hop
// (152 flows total), per-hop capacity scaled so each long flow keeps
// the standard share. The pending-event set here is an order of
// magnitude beyond DumbbellSteadyState's, so this benchmark is the
// end-to-end witness for the deep-queue scheduler path and the
// run-arena reuse together.
func DeepChainSteadyState(b *testing.B) { wholeSim(b, deepChain()) }

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
// long flow keeps the standard share. Both benchmarks run the exact
// same simulation — the determinism contract makes their event counts
// identical — differing only in the shard count, so their events/sec
// ratio is the whole-simulation speedup of the space-parallel engine.
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

// ShardedChainBaseline runs the sharded-chain workload on the serial
// engine (one scheduler, one event loop). It is the denominator of the
// sharded speedup: ShardedChainSteadyState's events/sec divided by this
// benchmark's is the end-to-end gain from splitting the same simulation
// across shards.
func ShardedChainBaseline(b *testing.B) { wholeSim(b, topoRun(shardedChainConfig(1))) }

// ShardedChainSteadyState runs the identical workload split across 4
// shards of the space-parallel engine — each shard owning a contiguous
// slice of the chain with its own timing-wheel scheduler, synchronized
// at the cross-shard lookahead horizon. On a multi-core host the shards
// advance concurrently and this benchmark measures the whole-simulation
// speedup; on a single-CPU host the shard goroutines take turns and
// the ratio to ShardedChainBaseline is the engine's coordination
// overhead instead. The TSV output (and events/run) is byte-identical
// to the baseline's either way.
func ShardedChainSteadyState(b *testing.B) { wholeSim(b, topoRun(shardedChainConfig(4))) }

// FaultyChainSteadyState measures whole-simulation throughput with the
// full fault-injection machinery live: the 8-hop fault-family chain
// under a combined plan — a flush-policy outage of the mid-chain
// bottleneck, a Gilbert–Elliott bursty loss process on the first hop,
// and a mid-run capacity renegotiation further down — so the per-packet
// Fault hook, the GE lottery and the Down/Up/SetRate event path are all
// on the measured path. Against DeepChainSteadyState it bounds the
// overhead the fault subsystem adds to a faulted run; links without a
// plan entry keep a nil hook and pay nothing.
func FaultyChainSteadyState(b *testing.B) { wholeSim(b, faultyChain()) }

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
// TCP class over the mirrored chain and a CBR session base. durScale
// stretches the measured window (and the arrival budget with it), so
// two runs at different scales hold peak population fixed while the
// arrival count doubles — the axis the alloc-flatness test compares.
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

// ChurnSteadyState measures whole-simulation throughput under run-time
// flow churn: several hundred finite TFRC/TCP/CBR transfers arrive,
// complete and are reclaimed while the persistent flows hold the
// bottleneck. Against ParkingLotSteadyState it bounds the cost of the
// arrival engine itself — the draw/attach/detach cycle plus the
// endpoint pools — and its allocs/op is the witness that steady-state
// churn recycles instead of allocating: allocations scale with the
// peak concurrent population, not with the number of arrivals served.
func ChurnSteadyState(b *testing.B) { wholeSim(b, topoRun(churnSteadyConfig(1))) }

// ReversePathSteadyState measures whole-simulation throughput with a
// routed congested reverse path: 2 TFRC + 2 TCP primary flows whose
// feedback and ACKs cross a real reverse queue shared with 2
// opposing-direction TCP flows and cross traffic, 25 simulated seconds.
// Against DumbbellSteadyState it isolates the cost of reverse-path
// routing (the Rev branch in the forwarding path, reverse queues, and
// the doubled per-packet link traversals of two-way traffic).
func ReversePathSteadyState(b *testing.B) { wholeSim(b, reversePath()) }

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
