package perfbench

import (
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

	r1 := testing.Benchmark(func(b *testing.B) { runChurnSteadyState(b, 1) })
	r2 := testing.Benchmark(func(b *testing.B) { runChurnSteadyState(b, 2) })
	if r1.AllocsPerOp() == 0 {
		t.Fatal("benchmark recorded zero allocs/run — harness broken")
	}
	// The band absorbs run-arena amortization wiggle (the arena is built
	// once and reused) and the slightly larger slot/flow tables of the
	// doubled arrival budget; per-arrival construction (~10 allocs each
	// across hundreds of extra transfers) blows far past it.
	limit := float64(r1.AllocsPerOp())*1.25 + 256
	if got := float64(r2.AllocsPerOp()); got > limit {
		t.Fatalf("allocs/run scaled with the arrival count: %d at 1x (%d arrivals) vs %d at 2x (%d arrivals)",
			r1.AllocsPerOp(), a1, r2.AllocsPerOp(), a2)
	}
}
