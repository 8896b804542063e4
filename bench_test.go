// Package repro's benchmarks for what no registered scenario expresses:
// the Fig. 2 deviation-from-convexity computation and Claim 4's analytic
// fluid model timed on their own, ablations of the design choices
// (estimator weights and window, comprehensive vs basic control, queue
// discipline, loss grouping, history discounting, cross traffic), and
// the sim-heavy scenarios run serially and on a worker pool. Every
// figure's scenario runs through ebrc, and whole-simulation throughput
// is measured by `ebrc -bench` (internal/perfbench).
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem
package repro

import (
	"context"
	"testing"

	"repro/internal/analytic"
	"repro/internal/cbr"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
	"repro/internal/runner"
)

// benchSizing is small enough to keep these benchmarks within a few
// minutes while preserving every figure's qualitative shape.
var benchSizing = experiments.Sizing{
	Events:    15000,
	SimFactor: 0.1,
	Pairs:     []int{1, 4},
	PairsCap:  2,
}

// BenchmarkFig02 times Fig. 2's deviation-from-convexity ratio of
// PFTK-standard and reports it.
func BenchmarkFig02(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f := formula.NewPFTKStandard(formula.Params{R: 1, Q: 4, B: 1})
		ratio, _ = formula.DeviationFromConvexity(f, 1.01, 50, 40000)
	}
	b.ReportMetric(ratio, "deviation-ratio")
}

// --- Ablation benches ---

// BenchmarkAblationWeights compares the TFRC flat-then-linear weights
// against uniform and exponential weighting of the estimator at the same
// window, reporting the normalized throughput of each.
func BenchmarkAblationWeights(b *testing.B) {
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	run := func(w []float64, seed uint64) float64 {
		return core.RunBasic(core.Config{
			Formula: f,
			Weights: w,
			Process: lossmodel.DesignShiftedExp(0.2, 0.9, rng.New(seed)),
			Events:  benchSizing.Events,
		}).Normalized
	}
	var tfrcW, unifW, expW float64
	for i := 0; i < b.N; i++ {
		tfrcW = run(estimator.TFRCWeights(8), 1)
		unifW = run(estimator.UniformWeights(8), 2)
		expW = run(estimator.ExponentialWeights(8, 0.7), 3)
	}
	b.ReportMetric(tfrcW, "tfrc-weights")
	b.ReportMetric(unifW, "uniform-weights")
	b.ReportMetric(expW, "exp-weights")
}

// BenchmarkAblationComprehensive reports the throughput gap between the
// comprehensive and basic controls (Proposition 2's direction).
func BenchmarkAblationComprehensive(b *testing.B) {
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	var gap float64
	for i := 0; i < b.N; i++ {
		mk := func() core.Config {
			return core.Config{
				Formula: f,
				Weights: estimator.TFRCWeights(8),
				Process: lossmodel.DesignShiftedExp(0.25, 0.95, rng.New(11)),
				Events:  benchSizing.Events,
			}
		}
		basic := core.RunBasic(mk())
		comp := core.RunComprehensive(mk())
		gap = comp.Normalized - basic.Normalized
	}
	b.ReportMetric(gap, "comprehensive-minus-basic")
}

// BenchmarkAblationQueue compares loss-event statistics under RED and
// DropTail for the same flow mix: RED's early drops desynchronize loss
// events across flows.
func BenchmarkAblationQueue(b *testing.B) {
	var redP, dtP float64
	for i := 0; i < b.N; i++ {
		pr := experiments.NS2Profile().Scale(benchSizing.SimFactor, 0)
		red := experiments.RunSim(pr.Config(4, 8, 21))
		cfg := pr.Config(4, 8, 21)
		cfg.Queue = experiments.DropTail
		cfg.Buffer = 100
		dt := experiments.RunSim(cfg)
		redP, dtP = red.TFRC.LossEventRate, dt.TFRC.LossEventRate
	}
	b.ReportMetric(redP, "red-p")
	b.ReportMetric(dtP, "droptail-p")
}

// BenchmarkAblationLossGrouping compares TFRC-style within-one-RTT loss
// grouping against per-loss events, via the audio scenario where the
// grouping window is the only difference between geometric intervals
// and raw Bernoulli drops.
func BenchmarkAblationLossGrouping(b *testing.B) {
	params := formula.ParamsForRTT(0.2)
	var grouped float64
	for i := 0; i < b.N; i++ {
		res := cbr.NewAudio(formula.NewPFTKSimplified(params), 4, 0.02, 0.2, 31).
			Run(benchSizing.Events, benchSizing.Events/10)
		grouped = res.LossEventRate
	}
	b.ReportMetric(grouped, "per-loss-event-rate")
}

// BenchmarkAblationEstimatorWindow sweeps L and reports the heavy-loss
// conservativeness at each (the paper's central sensitivity).
func BenchmarkAblationEstimatorWindow(b *testing.B) {
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	var l2, l16 float64
	for i := 0; i < b.N; i++ {
		run := func(L int, seed uint64) float64 {
			return core.RunBasic(core.Config{
				Formula: f,
				Weights: estimator.TFRCWeights(L),
				Process: lossmodel.DesignShiftedExp(0.3, 0.95, rng.New(seed)),
				Events:  benchSizing.Events,
			}).Normalized
		}
		l2, l16 = run(2, 41), run(16, 42)
	}
	b.ReportMetric(l2, "L2-normalized")
	b.ReportMetric(l16, "L16-normalized")
}

// BenchmarkFluidClaim4 times the analytic fluid simulation itself.
func BenchmarkFluidClaim4(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = analytic.SimulateFluidShared(analytic.DefaultAIMD(), 200, 8, 20000, 7).Ratio
	}
	b.ReportMetric(ratio, "loss-rate-ratio")
}

// BenchmarkAblationDiscounting compares TFRC with and without RFC 3448
// history discounting on the same scenario.
func BenchmarkAblationDiscounting(b *testing.B) {
	var plain, disc float64
	for i := 0; i < b.N; i++ {
		pr := experiments.NS2Profile().Scale(benchSizing.SimFactor, 0)
		p := experiments.RunSim(pr.Config(1, 8, 63))
		cfg := pr.Config(1, 8, 63)
		cfg.HistoryDiscounting = true
		d := experiments.RunSim(cfg)
		plain, disc = p.TFRC.Throughput, d.TFRC.Throughput
	}
	b.ReportMetric(plain, "plain-throughput")
	b.ReportMetric(disc, "discounting-throughput")
}

// BenchmarkAblationCrossTraffic compares foreground loss-event rates
// with and without heavy-tailed background load.
func BenchmarkAblationCrossTraffic(b *testing.B) {
	var clean, loaded float64
	for i := 0; i < b.N; i++ {
		pr := experiments.INRIA.Scale(benchSizing.SimFactor, 0)
		cfg := pr.Config(2, 8, 31)
		cfg.CrossLoad = 0
		c := experiments.RunSim(cfg)
		cfg2 := pr.Config(2, 8, 31)
		cfg2.CrossLoad = 0.3
		l := experiments.RunSim(cfg2)
		clean, loaded = c.TFRC.LossEventRate, l.TFRC.LossEventRate
	}
	b.ReportMetric(clean, "clean-p")
	b.ReportMetric(loaded, "crossload-p")
}

// --- Runner engine benches ---

// suiteScenarios is the sim-heavy subset that dominates the full figure
// suite's wall time — the workload the -parallel CLI mode targets.
var suiteScenarios = []string{"fig5", "fig7", "fig8", "fig9", "fig17"}

func runSuite(b *testing.B, ex runner.Executor) {
	b.Helper()
	for _, name := range suiteScenarios {
		s, ok := experiments.Lookup(name)
		if !ok {
			b.Fatalf("scenario %q not registered", name)
		}
		if _, err := s.Run(context.Background(), benchSizing, ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial is the baseline: the sim-heavy scenarios on one
// core, as the pre-runner code ran them.
func BenchmarkSuiteSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSuite(b, runner.Serial{})
	}
}

// BenchmarkSuiteParallel runs the same scenarios on a NumCPU worker
// pool; compare against BenchmarkSuiteSerial for the engine's speedup.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSuite(b, runner.NewPool(0))
	}
}
