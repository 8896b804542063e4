package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
)

// runSims executes independent sims through the runner pool, the same
// path the scenario registry uses.
func runSims(t *testing.T, cfgs ...SimConfig) []SimResult {
	t.Helper()
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = packetJob("integration", cfg.spec(), cfg.result)
	}
	results, err := runner.NewPool(0).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]SimResult, len(results))
	for i, r := range results {
		out[i] = r.(SimResult)
	}
	return out
}

// Integration: the packet-level TFRC's loss-interval statistics fed back
// through the analytical core must predict a throughput close to the
// protocol's measured one. This closes the loop between the simulator
// substrate (netsim/tfrc) and the paper's theory (core).
func TestIntegrationSimulatorMatchesTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("long packet-level integration run skipped in -short mode")
	}
	t.Parallel()
	pr := NS2Profile().Scale(0.4, 0)
	res := RunSim(pr.Config(4, 8, 7777))
	cls := res.TFRC
	if cls.Events < 100 {
		t.Skipf("too few events (%d) for a stable comparison", cls.Events)
	}
	// Theory: with (C1) holding (covnorm ~ 0), the comprehensive control
	// is conservative but within Claim 1's regime; its normalized
	// throughput should land in (0.6, 1.05].
	f := formula.NewPFTKStandard(formula.ParamsForRTT(cls.MeanRTT))
	norm := cls.Throughput / f.Rate(math.Max(cls.LossEventRate, 1e-9))
	if norm < 0.6 || norm > 1.1 {
		t.Fatalf("protocol normalized throughput = %v, theory expects (0.6, 1.1)", norm)
	}
	if math.Abs(cls.CovNorm) > 0.15 {
		t.Fatalf("covnorm = %v, want near zero (C1)", cls.CovNorm)
	}
}

// Integration: feeding the simulator's measured per-flow loss intervals
// into the basic-control Monte Carlo (a replay process) reproduces a
// normalized throughput below the comprehensive protocol's, per
// Proposition 2's direction.
func TestIntegrationReplayIntervalsThroughCore(t *testing.T) {
	if testing.Short() {
		t.Skip("long packet-level integration run skipped in -short mode")
	}
	t.Parallel()
	pr := NS2Profile().Scale(0.6, 0)
	res := RunSim(pr.Config(6, 8, 4242))
	var intervals []float64
	for _, st := range res.TFRCPerFlow {
		intervals = append(intervals, st.LossIntervals...)
	}
	if len(intervals) < 200 {
		t.Skipf("too few intervals: %d", len(intervals))
	}
	f := formula.NewPFTKStandard(formula.ParamsForRTT(res.TFRC.MeanRTT))
	replay := &sliceProcess{xs: intervals}
	basic := core.RunBasic(core.Config{
		Formula: f,
		Weights: estimator.TFRCWeights(8),
		Process: replay,
		Events:  len(intervals) - 16,
		Warmup:  8,
	})
	if !basic.Conservative(0.05) {
		t.Fatalf("replayed basic control non-conservative: %v", basic.Normalized)
	}
	// The protocol (comprehensive + feedback dynamics) attains at least
	// the replayed basic control's normalized throughput within noise.
	protoNorm := res.TFRC.Throughput / f.Rate(math.Max(res.TFRC.LossEventRate, 1e-9))
	if protoNorm < basic.Normalized*0.7 {
		t.Fatalf("protocol normalized %v far below basic replay %v",
			protoNorm, basic.Normalized)
	}
}

// sliceProcess replays a recorded loss-interval sequence cyclically.
type sliceProcess struct {
	xs []float64
	i  int
}

func (s *sliceProcess) Next() float64 {
	v := s.xs[s.i%len(s.xs)]
	s.i++
	if v <= 0 {
		v = 1
	}
	return v
}

func (s *sliceProcess) MeanInterval() float64 { return stats.Mean(s.xs) }
func (s *sliceProcess) Name() string          { return "replay" }

// Integration: the analytic Claim 4 mechanism and the packet-level
// Figure 17 competing run point the same way (TCP sees more loss
// events per packet than TFRC when competing over DropTail).
func TestIntegrationClaim4Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("long packet-level integration run skipped in -short mode")
	}
	t.Parallel()
	analyticRatio := 16.0 / 9
	s, ok := Lookup("fig17")
	if !ok {
		t.Fatal("fig17 not registered")
	}
	tables, err := s.Run(context.Background(),
		Sizing{Events: 5000, SimFactor: 0.35, Pairs: []int{1}}, runner.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var competing float64
	n := 0
	for _, row := range tb.Rows {
		if row[2] > 0 {
			competing += row[2]
			n++
		}
	}
	if n == 0 {
		t.Skip("no competing data")
	}
	competing /= float64(n)
	if competing <= 1 {
		t.Fatalf("packet-level competing ratio %v contradicts analytic %v",
			competing, analyticRatio)
	}
}

// Integration: cross traffic raises the loss-event rate seen by the
// foreground flows without starving them.
func TestIntegrationCrossTrafficRaisesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long packet-level integration run skipped in -short mode")
	}
	t.Parallel()
	pr := INRIA.Scale(0.3, 0)
	base := pr.Config(2, 8, 31)
	base.CrossLoad = 0
	loaded := pr.Config(2, 8, 31)
	loaded.CrossLoad = 0.3
	res := runSims(t, base, loaded)
	clean, dirty := res[0], res[1]
	if dirty.TFRC.Throughput <= 0 || dirty.TCP.Throughput <= 0 {
		t.Fatal("cross traffic starved the foreground")
	}
	if dirty.TFRC.LossEventRate+dirty.TCP.LossEventRate <=
		clean.TFRC.LossEventRate+clean.TCP.LossEventRate {
		t.Fatalf("cross traffic did not raise loss: %v vs %v",
			dirty.TFRC.LossEventRate+dirty.TCP.LossEventRate,
			clean.TFRC.LossEventRate+clean.TCP.LossEventRate)
	}
}

// Integration: history discounting must not change long-run behavior
// qualitatively — TFRC stays within the conservative band — while
// raising the rate during long loss-free periods (weakly larger
// throughput under light load).
func TestIntegrationHistoryDiscounting(t *testing.T) {
	if testing.Short() {
		t.Skip("long packet-level integration run skipped in -short mode")
	}
	t.Parallel()
	pr := NS2Profile().Scale(0.3, 0)
	plain := pr.Config(1, 8, 63)
	disc := pr.Config(1, 8, 63)
	disc.HistoryDiscounting = true
	res := runSims(t, plain, disc)
	plainRes, discRes := res[0], res[1]
	if discRes.TFRC.Throughput < plainRes.TFRC.Throughput*0.8 {
		t.Fatalf("discounting collapsed throughput: %v vs %v",
			discRes.TFRC.Throughput, plainRes.TFRC.Throughput)
	}
	f := formula.NewPFTKStandard(formula.ParamsForRTT(discRes.TFRC.MeanRTT))
	norm := discRes.TFRC.Throughput / f.Rate(math.Max(discRes.TFRC.LossEventRate, 1e-9))
	if norm > 1.3 {
		t.Fatalf("discounting made TFRC wildly non-conservative: %v", norm)
	}
}

// Integration: the full core pipeline on a designed process agrees with
// direct statistics computed from the same stream (Proposition 1 is a
// plain identity of the simulated quantities).
func TestIntegrationProp1Identity(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	proc := lossmodel.DesignShiftedExp(0.1, 0.8, rng.New(555))
	res := core.RunBasic(core.Config{
		Formula: f,
		Weights: estimator.TFRCWeights(8),
		Process: proc,
		Events:  40000,
	})
	// Throughput must equal E[θ]/E[S] of the same run:
	// x̄·E[S] = E[θ] ⇒ x̄·MeanInterLossTime·p ≈ 1.
	lhs := res.Throughput * res.MeanInterLossTime * res.LossEventRate
	if math.Abs(lhs-1) > 0.01 {
		t.Fatalf("Prop 1 identity violated: x̄·E[S]·p = %v, want 1", lhs)
	}
}
