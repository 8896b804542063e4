package experiments

import (
	"runtime"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/topology"
)

// An idle cluster must outlive garbage collection and come back to
// whichever goroutine asks next: a worker that moves to another P
// between runs keeps its warm wheels, slot tables and packet pools
// instead of rebuilding them.
func TestArenaReuseAcrossGCAndGoroutines(t *testing.T) {
	put := make(chan *shard.Cluster)
	go func() {
		c, key := getCluster(1)
		putCluster(c, key)
		put <- c
	}()
	want := <-put
	runtime.GC()
	runtime.GC()
	got := make(chan *shard.Cluster)
	go func() {
		c, _ := getCluster(1)
		got <- c
	}()
	c := <-got
	defer putCluster(c, "")
	if c != want {
		t.Fatal("getCluster built a new cluster instead of returning the one put last")
	}
}

// splitmix64 is one step of the splitmix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultChurnJob is job i of the repository benchmark's faultchurn sweep
// at seed 1 and a quarter of its full length: the 8-hop fault-family
// chain with a mirrored reverse chain under a combined fault plan
// (links 0..7 forward, 8..15 the reverse chain), plus four churn
// classes. Stream k of kind 1 (jobs), 2 (fault plans) or 3 (churn
// classes) is seeded splitmix64(splitmix64(1^kind<<48) + k).
func faultChurnJob(i int) TopoSimConfig {
	derive := func(kind uint64, k int) uint64 { return splitmix64(splitmix64(1^kind<<48) + uint64(k)) }
	cfg := TopoSimConfig{
		Hops: 8, Capacity: 2.5e6, Buffer: 64, HopDelay: 0.01,
		AccessDelay: 0.005, RevDelay: 0.025,
		NTFRC: 8, NTCP: 8, CrossPerHop: 1, CrossRevDelay: 0.02,
		L: 8, Comprehensive: true,
		Warmup: 0.75, Duration: 24,
		Seed: derive(1, i), RevJitter: 0.2, MirrorRev: true,
	}
	wu, d := cfg.Warmup, cfg.Duration
	end := wu + d
	cfg.Faults = (&fault.Plan{Seed: derive(2, i)}).
		Flap(4, wu+0.35*d, wu+0.45*d, fault.Flush).
		Burst(0, 400, 25, 0.6).
		Squeeze(topology.LinkID(8+3), wu+0.55*d, wu+0.75*d, 0.02*cfg.Capacity, cfg.Capacity)
	seed := func(k int) uint64 { return derive(3, 4*i+k) }
	cfg.Churn = []arrivals.Spec{
		{
			Name: "tfrc", Proto: arrivals.TFRC,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 16},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
			Stop: end, MaxArrivals: int(40*end) + 64, Seed: seed(0),
		},
		{
			Name: "mice", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.02},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
			Stop: end, MaxArrivals: int(120*end) + 64, Seed: seed(1),
		},
		{
			Name: "rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 12},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
			Stop: end, MaxArrivals: int(30*end) + 64, Seed: seed(2),
		},
		{
			Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Stop: end, MaxArrivals: int(20*end) + 64, Seed: seed(3),
		},
	}
	return cfg
}

// A finished run must leave nothing reachable from the arena: eight
// churn jobs run back to back on one worker hold the live heap where
// the first job left it. A pool slot that still points at a record
// handed out during a run keeps that record's endpoints alive, and
// through their completion hooks the run's whole churn engine; such
// leftovers pile up job after job.
func TestArenaRetainsNoFinishedRun(t *testing.T) {
	liveMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	var first float64
	for i := 0; i < 8; i++ {
		if res := RunTopoSim(faultChurnJob(i)); len(res.Churn) != 4 || res.Churn[1].Arrivals == 0 {
			t.Fatalf("job %d: churn did not run: %+v", i, res.Churn)
		}
		if i == 0 {
			first = liveMB()
		}
	}
	if last := liveMB(); last-first > 0.25 {
		t.Fatalf("live heap grew from %.2f MB after the first job to %.2f MB after the eighth", first, last)
	}
}
