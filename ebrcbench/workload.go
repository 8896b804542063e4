package main

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/topology"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaper      = "paper"
	wlFaultChurn = "faultchurn"
	wlSharded    = "sharded"
)

var workloadNames = []string{wlPaper, wlFaultChurn, wlSharded}

// defaultSeed is the seed the golden digests are recorded for.
const defaultSeed = 1

// shardedShards is the shard count of the sharded workload: one domain
// per CPU of the two-CPU host the benchmark is sized for, so the
// goroutine-per-shard barrier driver runs.
const shardedShards = 2

// job is one simulation of a workload. Exactly one of sim and topo is
// set. Sharded jobs also snapshot every ckptEvery simulated seconds and
// are resumed from their latest snapshot afterwards.
type job struct {
	name string
	sim  *experiments.SimConfig
	topo *experiments.TopoSimConfig
}

// workload is a job set plus the pool shape it runs on.
type workload struct {
	name    string
	workers int
	jobs    []job
	// ckptEvery is the snapshot cadence in simulated seconds (sharded
	// only; 0 elsewhere).
	ckptEvery float64
}

// splitmix64 is the seed derivation used for every generated seed: a
// bijective avalanche mix, so distinct (seed, stream) pairs give
// unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the seed of stream i of the given kind under the
// benchmark seed.
func derive(seed uint64, kind uint64, i int) uint64 {
	return splitmix64(splitmix64(seed^kind<<48) + uint64(i))
}

// Seed stream kinds.
const (
	streamJob uint64 = iota + 1
	streamFault
	streamChurn
)

// buildWorkload generates a workload's job set from the benchmark seed.
// horizon scales every simulated duration (1 is the measured size; the
// tests use a tiny one). setupOnly replaces each horizon with one too
// short for a packet to cross a link, leaving construction, arming,
// partitioning and teardown.
func buildWorkload(name string, seed uint64, horizon float64, setupOnly bool) (*workload, error) {
	var w *workload
	switch name {
	case wlPaper:
		w = paperWorkload(seed, horizon)
	case wlFaultChurn:
		w = faultChurnWorkload(seed, horizon)
	case wlSharded:
		w = shardedWorkload(seed, horizon)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if setupOnly {
		// Fault events and churn arrivals then fall after the end of the
		// run: they are armed and their pools allocated, but none fires.
		for _, j := range w.jobs {
			if j.sim != nil {
				j.sim.Warmup, j.sim.Duration = 0, setupHorizon
			} else {
				j.topo.Warmup, j.topo.Duration = 0, setupHorizon
			}
		}
	}
	return w, nil
}

// setupHorizon is the simulated time a set-up-only job runs: shorter
// than one packet's serialization on any link of the workloads, so
// senders start but no packet is delivered.
const setupHorizon = 1e-6

// paperWorkload is the Figs. 7/8 sweep of the source paper: the
// ns-2-style 15 Mb/s RED dumbbell, L ∈ {2,4,8,16} × {1..64} pairs of
// TFRC and TCP flows plus a light Poisson probe.
func paperWorkload(seed uint64, horizon float64) *workload {
	w := &workload{name: wlPaper, workers: 2}
	pr := experiments.NS2Profile()
	i := 0
	for _, L := range []int{2, 4, 8, 16} {
		for _, pairs := range []int{1, 2, 4, 8, 16, 32, 64} {
			cfg := pr.Config(pairs, L, derive(seed, streamJob, i))
			cfg.ProbeRate = 10
			cfg.Warmup *= paperHorizon * horizon
			cfg.Duration *= paperHorizon * horizon
			w.jobs = append(w.jobs, job{name: fmt.Sprintf("paper L=%d pairs=%d", L, pairs), sim: &cfg})
			i++
		}
	}
	return w
}

// paperHorizon scales the publication-length horizon (60 s warmup,
// 400 s measured) so that one pass of the sweep takes a few seconds.
const paperHorizon = 0.5

// faultChurnWorkload runs the 8-hop fault-family chain with a mirrored
// reverse chain under a combined fault plan and four churn classes.
func faultChurnWorkload(seed uint64, horizon float64) *workload {
	w := &workload{name: wlFaultChurn, workers: 2}
	for i := 0; i < 8; i++ {
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
			Warmup:        3 * horizon,
			Duration:      faultChurnDuration * horizon,
			Seed:          derive(seed, streamJob, i),
			RevJitter:     0.2,
			MirrorRev:     true,
		}
		wu, d := cfg.Warmup, cfg.Duration
		end := wu + d
		// Forward links are 0..7, the mirrored reverse chain 8..15.
		cfg.Faults = (&fault.Plan{Seed: derive(seed, streamFault, i)}).
			Flap(4, wu+0.35*d, wu+0.45*d, fault.Flush).
			Burst(0, 400, 25, 0.6).
			Squeeze(topology.LinkID(8+3), wu+0.55*d, wu+0.75*d, 0.02*cfg.Capacity, cfg.Capacity)
		cs := func(k int) uint64 { return derive(seed, streamChurn, 4*i+k) }
		cfg.Churn = []arrivals.Spec{
			{
				Name: "tfrc", Proto: arrivals.TFRC,
				Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 16},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
				Stop: end, MaxArrivals: int(40*end) + 64, Seed: cs(0),
			},
			{
				Name: "mice", Proto: arrivals.TCP,
				Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.02},
				Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
				Stop: end, MaxArrivals: int(120*end) + 64, Seed: cs(1),
			},
			{
				Name: "rev", Proto: arrivals.TCP, Reverse: true,
				Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 12},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
				Stop: end, MaxArrivals: int(30*end) + 64, Seed: cs(2),
			},
			{
				Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
				Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
				Stop: end, MaxArrivals: int(20*end) + 64, Seed: cs(3),
			},
		}
		w.jobs = append(w.jobs, job{name: fmt.Sprintf("faultchurn %d", i), topo: &cfg})
	}
	return w
}

// faultChurnDuration is the measured window of each faultchurn job in
// simulated seconds. It keeps a pass several seconds long once inserts
// no longer take the scheduler's sorted path: with the single-event
// cursor jump disabled, a seed-1 pass took 3.0 s instead of 11.5 s on a
// 2-vCPU Xeon VM (NOTES.md).
const faultChurnDuration = 96

// shardedWorkload runs the largest scale-out chain on the 2-shard
// goroutine driver with periodic snapshots.
func shardedWorkload(seed uint64, horizon float64) *workload {
	w := &workload{name: wlSharded, workers: 1, ckptEvery: 4 * horizon}
	for i := 0; i < shardedJobs; i++ {
		cfg := experiments.TopoSimConfig{
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
			Warmup:        1 * horizon,
			Duration:      shardedDuration * horizon,
			Seed:          derive(seed, streamJob, i),
			RevJitter:     0.2,
			Shards:        shardedShards,
		}
		w.jobs = append(w.jobs, job{name: fmt.Sprintf("sharded %d", i), topo: &cfg})
	}
	return w
}

// shardedJobs and shardedDuration size the sharded workload.
const (
	shardedJobs     = 4
	shardedDuration = 20
)
