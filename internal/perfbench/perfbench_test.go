package perfbench

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// Steady-state churn must be allocation-flat in the arrival count:
// doubling the measured window doubles the transfers served but holds
// the peak concurrent population (and thus the endpoint pools) fixed,
// so allocs per run may not grow with it. A linear term here means the
// arrival engine is constructing per-arrival instead of recycling —
// exactly the regression the ChurnSteadyState gate exists to catch.
func TestChurnSteadyStateAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-simulation alloc comparison skipped in -short mode")
	}
	arrivalsOf := func(res experiments.TopoSimResult) int64 {
		var n int64
		for _, c := range res.Churn {
			n += c.Arrivals
		}
		return n
	}
	a1 := arrivalsOf(experiments.RunTopoSim(churnSteadyConfig(1)))
	a2 := arrivalsOf(experiments.RunTopoSim(churnSteadyConfig(2)))
	if a1 == 0 || float64(a2) < 1.7*float64(a1) {
		t.Fatalf("arrival counts did not scale with the window: %d vs %d", a1, a2)
	}

	r1 := testing.Benchmark(func(b *testing.B) { wholeSim(b, topoRun(churnSteadyConfig(1))) })
	r2 := testing.Benchmark(func(b *testing.B) { wholeSim(b, topoRun(churnSteadyConfig(2))) })
	if r1.AllocsPerOp() == 0 {
		t.Fatal("benchmark recorded zero allocs/run — harness broken")
	}
	// The band absorbs run-arena amortization wiggle (the arena is built
	// once and reused) and the larger arrival index and flow table of the
	// doubled arrival budget; per-arrival construction (~10 allocs each
	// across hundreds of extra transfers) blows far past it.
	limit := float64(r1.AllocsPerOp())*1.25 + 256
	if got := float64(r2.AllocsPerOp()); got > limit {
		t.Fatalf("allocs/run scaled with the arrival count: %d at 1x (%d arrivals) vs %d at 2x (%d arrivals)",
			r1.AllocsPerOp(), a1, r2.AllocsPerOp(), a2)
	}
	// The same for bytes: what the arrival budget still sizes (the churn
	// engine's int32 arrival index; the flow table is arena capacity)
	// fits the band; a per-arrival record or Palm cycle (tens of bytes
	// each) does not.
	limitB := float64(r1.AllocedBytesPerOp())*1.25 + 16<<10
	if got := float64(r2.AllocedBytesPerOp()); got > limitB {
		t.Fatalf("bytes/run scaled with the arrival count: %d at 1x (%d arrivals) vs %d at 2x (%d arrivals)",
			r1.AllocedBytesPerOp(), a1, r2.AllocedBytesPerOp(), a2)
	}
}

// bench16 holds each whole-simulation body's allocs/op as BENCH_16.json
// recorded them.
var bench16 = map[string]float64{
	"DumbbellSteadyState":          553,
	"ParkingLotSteadyState":        655,
	"ReversePathSteadyState":       323,
	"DeepChainSteadyState":         3567,
	"ShardedChainBaseline":         11033,
	"ShardedChainSteadyState":      11367,
	"FaultyChainSteadyState":       1239,
	"ChurnSteadyState":             983,
	"CheckpointedChainSteadyState": 941,
}

// churnBytesPerRun is ChurnSteadyState's bytes/op as BENCH_17.json
// recorded it.
const churnBytesPerRun = 139404.0

// Every whole-simulation body keeps its allocations per run at or below
// 1.25x the BENCH_16 value, and ChurnSteadyState its bytes per run at or
// below 1.25x the BENCH_17 value. The budget is per run, not per event:
// the work a run simulates is fixed, while the events it takes to
// simulate it are the engine's own business. Unlike the benchmark gate
// these are counts, not timings, so they hold on any machine. One
// warm-up run sizes the run arena, as the earlier runs of a sweep do;
// the next run is measured.
func TestWholeSimAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-simulation alloc ceilings skipped in -short mode")
	}
	for _, w := range Suite {
		if w.sim == nil {
			continue // a scheduler body: TestSteadyStateZeroAlloc in internal/des pins it
		}
		t.Run(w.Name, func(t *testing.T) {
			base, ok := bench16[w.Name]
			if !ok {
				t.Fatalf("no BENCH_16 record for %s", w.Name)
			}
			if w.ckpt {
				defer withCheckpoints(t.TempDir())()
			}
			w.sim()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			events := w.sim()
			runtime.ReadMemStats(&after)
			if events == 0 {
				t.Fatal("the run fired no events")
			}
			allocs := float64(after.Mallocs - before.Mallocs)
			if limit := 1.25 * base; allocs > limit {
				t.Errorf("%.0f allocs/run, ceiling %.0f (1.25x BENCH_16)", allocs, limit)
			}
			if w.Name != "ChurnSteadyState" {
				return
			}
			bytes := float64(after.TotalAlloc - before.TotalAlloc)
			if limit := 1.25 * churnBytesPerRun; bytes > limit {
				t.Errorf("%.0f bytes/run, ceiling %.0f (1.25x BENCH_17)", bytes, limit)
			}
		})
	}
}

// BenchmarkSuite runs every body of Suite as one sub-benchmark, under
// the name `ebrc -bench` records it by; select one with
// go test -run '^$' -bench 'Suite/DumbbellSteadyState' ./internal/perfbench
func BenchmarkSuite(b *testing.B) {
	for _, w := range Suite {
		b.Run(w.Name, w.Bench)
	}
}
