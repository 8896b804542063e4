package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
)

func basicCfg(f formula.Formula, L int, proc lossmodel.Process, events int) Config {
	return Config{
		Formula: f,
		Weights: estimator.TFRCWeights(L),
		Process: proc,
		Events:  events,
	}
}

// Theorem 1 / Corollary 1: IID loss intervals + convex g imply the basic
// control is conservative.
func TestCorollary1Conservative(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	for _, f := range []formula.Formula{
		formula.NewSQRT(params),
		formula.NewPFTKSimplified(params),
	} {
		for _, p := range []float64{0.02, 0.1, 0.3} {
			proc := lossmodel.DesignShiftedExp(p, 0.9, rng.New(100))
			res := RunBasic(basicCfg(f, 8, proc, 100000))
			if !res.Conservative(0.01) {
				t.Errorf("%s p=%v: normalized = %v, want <= 1",
					f.Name(), p, res.Normalized)
			}
			// IID intervals: (C1) holds with near-zero covariance.
			if math.Abs(res.CovThetaHatNorm) > 0.02 {
				t.Errorf("%s p=%v: cov·p² = %v, want ~0",
					f.Name(), p, res.CovThetaHatNorm)
			}
		}
	}
}

// Exact check: SQRT, L=1, exponential intervals (cv=1). Then θ̂ is the
// previous interval, E[θ̂^{-1/2}] = sqrt(pi/m), and the normalized
// throughput is exactly 1/sqrt(pi) ≈ 0.5642.
func TestSQRTL1ExactValue(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	proc := lossmodel.DesignShiftedExp(0.05, 1.0, rng.New(7))
	res := RunBasic(basicCfg(f, 1, proc, 400000))
	want := 1 / math.Sqrt(math.Pi)
	if math.Abs(res.Normalized-want) > 0.01 {
		t.Fatalf("normalized = %v, want %v", res.Normalized, want)
	}
}

// Figure 3 shape, PFTK-simplified: conservativeness strengthens with p
// (throughput drop under heavy loss), and weakens with larger L.
func TestFig3ShapePFTK(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	cv := 1 - 1.0/1000
	norm := func(p float64, L int, seed uint64) float64 {
		proc := lossmodel.DesignShiftedExp(p, cv, rng.New(seed))
		return RunBasic(basicCfg(f, L, proc, 60000)).Normalized
	}
	// Monotone drop with p at L=8.
	n005, n02, n04 := norm(0.05, 8, 1), norm(0.2, 8, 2), norm(0.4, 8, 3)
	if !(n005 > n02 && n02 > n04) {
		t.Fatalf("normalized not decreasing in p: %v %v %v", n005, n02, n04)
	}
	if n04 > 0.7 {
		t.Fatalf("heavy-loss PFTK normalized = %v, want strong conservativeness", n04)
	}
	// Larger L is less conservative at fixed p.
	l1, l16 := norm(0.2, 1, 4), norm(0.2, 16, 5)
	if l1 >= l16 {
		t.Fatalf("L=1 (%v) should be more conservative than L=16 (%v)", l1, l16)
	}
}

// Figure 3 shape, SQRT: with the shifted-exponential design the law of
// p·θ0 does not depend on p, so the normalized throughput is invariant
// to p.
func TestFig3SQRTInvariantInP(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	cv := 1 - 1.0/1000
	norm := func(p float64) float64 {
		proc := lossmodel.DesignShiftedExp(p, cv, rng.New(11))
		return RunBasic(basicCfg(f, 4, proc, 150000)).Normalized
	}
	a, b, c := norm(0.02), norm(0.1), norm(0.4)
	if math.Abs(a-b) > 0.02 || math.Abs(b-c) > 0.02 {
		t.Fatalf("SQRT normalized varies with p: %v %v %v", a, b, c)
	}
}

// Figure 4 shape: conservativeness strengthens with the coefficient of
// variation of the loss intervals.
func TestFig4ShapeCV(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	norm := func(cv float64, seed uint64) float64 {
		proc := lossmodel.DesignShiftedExp(0.1, cv, rng.New(seed))
		return RunBasic(basicCfg(f, 8, proc, 60000)).Normalized
	}
	n02, n05, n09 := norm(0.2, 21), norm(0.5, 22), norm(0.9, 23)
	if !(n02 > n05 && n05 > n09) {
		t.Fatalf("normalized not decreasing in cv: %v %v %v", n02, n05, n09)
	}
	// Low variability: close to the deterministic fixed point (≈ 1).
	if n02 < 0.95 {
		t.Fatalf("cv=0.2 normalized = %v, want near 1", n02)
	}
}

// Proposition 2: the comprehensive control attains at least the basic
// control's throughput under the same loss process.
func TestProp2ComprehensiveAtLeastBasic(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	for _, f := range []formula.Formula{
		formula.NewSQRT(params),
		formula.NewPFTKSimplified(params),
		formula.NewPFTKStandard(params),
	} {
		for _, p := range []float64{0.05, 0.25} {
			b := RunBasic(basicCfg(f, 8, lossmodel.DesignShiftedExp(p, 0.9, rng.New(31)), 60000))
			c := RunComprehensive(basicCfg(f, 8, lossmodel.DesignShiftedExp(p, 0.9, rng.New(31)), 60000))
			if c.Throughput < b.Throughput*(1-1e-9) {
				t.Errorf("%s p=%v: comprehensive %v < basic %v",
					f.Name(), p, c.Throughput, b.Throughput)
			}
		}
	}
}

// The comprehensive control's conservativeness is less pronounced than
// the basic control's (paper §V-B.1).
func TestComprehensiveLessPronounced(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	b := RunBasic(basicCfg(f, 8, lossmodel.DesignShiftedExp(0.3, 0.95, rng.New(41)), 80000))
	c := RunComprehensive(basicCfg(f, 8, lossmodel.DesignShiftedExp(0.3, 0.95, rng.New(41)), 80000))
	if !(b.Normalized < c.Normalized) {
		t.Fatalf("basic %v should be more conservative than comprehensive %v",
			b.Normalized, c.Normalized)
	}
}

// Proposition 3: the closed-form interval duration matches the numeric
// quadrature used by RunComprehensive, for SQRT and PFTK-simplified.
func TestProp3MatchesQuadrature(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	r := rng.New(51)
	for _, f := range []formula.Formula{
		formula.NewSQRT(params),
		formula.NewPFTKSimplified(params),
	} {
		est := estimator.NewLossIntervalEstimator(estimator.TFRCWeights(8))
		for i := 0; i < 20; i++ {
			est.Observe(r.ShiftedExp(1, 0.2))
		}
		cd := comprehensiveDuration{panels: 4096}
		for i := 0; i < 200; i++ {
			theta := r.ShiftedExp(1, 0.2)
			hatN := est.Estimate()
			rate := f.Rate(1 / hatN)
			numeric, _ := cd.interval(est, f, theta, rate)
			w1 := est.Weights()[0]
			thetaStar := est.OpenThreshold()
			hatNext := hatN
			if theta > thetaStar {
				hatNext = hatN + w1*(theta-thetaStar)
			}
			closed, err := IntervalDurationProp3(f, w1, hatN, hatNext, theta)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if math.Abs(numeric-closed)/closed > 1e-5 {
				t.Fatalf("%s: numeric %v vs closed form %v (theta=%v)",
					f.Name(), numeric, closed, theta)
			}
			est.Observe(theta)
		}
	}
}

func TestProp3RejectsPFTKStandard(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKStandard(formula.DefaultParams())
	if _, err := IntervalDurationProp3(f, 0.2, 10, 12, 15); err == nil {
		t.Fatal("expected error for PFTK-standard")
	}
}

func TestProp3NoIncreaseBranch(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	// hatNext <= hatN: duration is the plain basic-control value.
	got, err := IntervalDurationProp3(f, 0.2, 10, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 / f.Rate(1.0/10)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

// Theorem 2 part 2 / Claim 2 / Figure 6: the audio sender (fixed packet
// rate, variable packet length) through a Bernoulli dropper is
// non-conservative for PFTK under heavy loss and conservative for SQRT.
func TestClaim2Audio(t *testing.T) {
	t.Parallel()
	params := formula.ParamsForRTT(0.2)
	const spacing = 0.02 // one packet per 20 ms, as in the paper
	heavy := 0.2         // heavy loss: PFTK's f(1/x) is convex there
	runAudio := func(f formula.Formula, p float64, seed uint64) Result {
		proc := lossmodel.NewGeometric(p, rng.New(seed))
		return RunFixedPacketRate(basicCfg(f, 4, proc, 150000), spacing)
	}
	sqrtRes := runAudio(formula.NewSQRT(params), heavy, 61)
	if sqrtRes.Normalized > 1.005 {
		t.Fatalf("SQRT audio normalized = %v, want <= 1", sqrtRes.Normalized)
	}
	pftkRes := runAudio(formula.NewPFTKSimplified(params), heavy, 62)
	if pftkRes.Normalized < 1.01 {
		t.Fatalf("PFTK audio heavy-loss normalized = %v, want > 1 (non-conservative)",
			pftkRes.Normalized)
	}
	stdRes := runAudio(formula.NewPFTKStandard(params), heavy, 63)
	if stdRes.Normalized < 1.01 {
		t.Fatalf("PFTK-standard audio heavy-loss normalized = %v, want > 1",
			stdRes.Normalized)
	}
	// Light loss: PFTK is concave there, so conservative again.
	light := runAudio(formula.NewPFTKSimplified(params), 0.005, 64)
	if light.Normalized > 1.005 {
		t.Fatalf("PFTK audio light-loss normalized = %v, want <= 1", light.Normalized)
	}
	// The audio scenario decouples X and S: cov[X0,S0] ~ 0.
	norm := pftkRes.CovXS / (pftkRes.Throughput * pftkRes.MeanInterLossTime)
	if math.Abs(norm) > 0.05 {
		t.Fatalf("audio cov[X,S] normalized = %v, want ~0", norm)
	}
}

// Palm inversion on the rate-coupled controls: the time-average rate is
// λ·E0[X·S] with λ = 1/E0[S], and X_n·S_n = θ_n, so x̄ = E0[θ]/E0[S] =
// 1/(p·E0[S]) to rounding — the identity behind Proposition 1.
func TestPalmInversionIdentity(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	for i, f := range []formula.Formula{formula.NewSQRT(params), formula.NewPFTKSimplified(params)} {
		proc := lossmodel.DesignShiftedExp(0.05, 0.7, rng.New(uint64(80+i)))
		for _, res := range []Result{
			RunBasic(basicCfg(f, 8, proc, 5000)),
			RunComprehensive(basicCfg(f, 8, proc, 5000)),
		} {
			want := 1 / (res.LossEventRate * res.MeanInterLossTime)
			if math.Abs(res.Throughput-want) > 1e-12*want {
				t.Errorf("%s: throughput %v, Palm inversion gives %v", f.Name(), res.Throughput, want)
			}
		}
	}
}

// The basic control through Theorem 2's lens: the rate f(1/θ̂) held
// over S = θ/f(1/θ̂) is negatively correlated with the cycle length, so
// the time average E[X] = E0[X] + cov0[X,S]/E0[S] sits below the event
// average E0[X], and under Theorem 1's hypotheses both stay at or below
// f(p) — E0[X] by Jensen on the concave f(1/x) of SQRT.
func TestTheorem2ViewpointOnBasicControl(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	proc := lossmodel.DesignShiftedExp(0.1, 0.9, rng.New(3))
	res := RunBasic(basicCfg(f, 8, proc, 50000))
	if res.CovXS >= 0 {
		t.Fatalf("cov[X0,S0] = %v, want negative (E[X] < E0[X])", res.CovXS)
	}
	if res.Throughput > res.FormulaRate {
		t.Fatalf("time mean %v above f(p) %v", res.Throughput, res.FormulaRate)
	}
	if palm := res.Throughput - res.CovXS/res.MeanInterLossTime; palm > res.FormulaRate*1.01 {
		t.Fatalf("Palm mean %v above f(p) %v", palm, res.FormulaRate)
	}
}

// Eq. (10): the bound holds against measured throughput when (C1) holds.
func TestTheorem1BoundHolds(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	proc := lossmodel.DesignShiftedExp(0.1, 0.9, rng.New(71))
	res := RunBasic(basicCfg(f, 8, proc, 100000))
	bound, valid := Theorem1Bound(f, res.LossEventRate, res.CovThetaHat)
	if !valid {
		t.Fatal("bound should be valid for near-zero covariance")
	}
	if res.Throughput > bound*1.01 {
		t.Fatalf("throughput %v exceeds eq.(10) bound %v", res.Throughput, bound)
	}
	// Zero covariance: the bound reduces to f(p).
	b0, _ := Theorem1Bound(f, 0.1, 0)
	if math.Abs(b0-f.Rate(0.1)) > 1e-9 {
		t.Fatalf("zero-cov bound = %v, want f(p) = %v", b0, f.Rate(0.1))
	}
}

func TestTheorem1BoundInvalidDenominator(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	// Large positive covariance drives the denominator negative
	// (elasticity is -1/2 for SQRT, so need cov·p² > 2).
	_, valid := Theorem1Bound(f, 0.5, 100)
	if valid {
		t.Fatal("expected invalid bound for huge positive covariance")
	}
}

// Proposition 4: under (C1) the overshoot never exceeds the deviation
// ratio. For PFTK-standard the bound is ~1.003.
func TestProp4BoundObserved(t *testing.T) {
	t.Parallel()
	f := formula.NewPFTKStandard(formula.DefaultParams())
	bound := Prop4Bound(f, 1.01, 100, 5000)
	if bound < 1 || bound > 1.01 {
		t.Fatalf("Prop4 bound = %v, want just above 1", bound)
	}
	proc := lossmodel.DesignShiftedExp(0.15, 0.9, rng.New(81))
	res := RunBasic(basicCfg(f, 8, proc, 100000))
	if res.Normalized > bound*1.01 {
		t.Fatalf("normalized %v exceeds Prop4 bound %v", res.Normalized, bound)
	}
}

func TestClassifyVerdicts(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	// IID + PFTK-simplified: Theorem 1 path, conservative.
	cfg := basicCfg(formula.NewPFTKSimplified(params), 8,
		lossmodel.DesignShiftedExp(0.1, 0.9, rng.New(91)), 50000)
	res := RunBasic(cfg)
	lo, hi := EstimatorRange(basicCfg(formula.NewPFTKSimplified(params), 8,
		lossmodel.DesignShiftedExp(0.1, 0.9, rng.New(91)), 50000), 20000, 0.01, 0.99)
	rep := Classify(formula.NewPFTKSimplified(params), res, lo, hi, 0.05)
	if !rep.F1 || !rep.C1 {
		t.Fatalf("expected F1 and C1 to hold: %+v", rep)
	}
	if rep.Verdict != PredictConservative {
		t.Fatalf("verdict = %v, want conservative", rep.Verdict)
	}
	if !res.Conservative(0.01) {
		t.Fatalf("prediction conservative but measured %v", res.Normalized)
	}

	// Audio + PFTK + heavy loss: Theorem 2 part 2, non-conservative.
	audioCfg := basicCfg(formula.NewPFTKSimplified(params), 4,
		lossmodel.NewGeometric(0.25, rng.New(92)), 100000)
	audioRes := RunFixedPacketRate(audioCfg, 0.02)
	lo2, hi2 := EstimatorRange(basicCfg(formula.NewPFTKSimplified(params), 4,
		lossmodel.NewGeometric(0.25, rng.New(92)), 100000), 20000, 0.1, 0.9)
	rep2 := Classify(formula.NewPFTKSimplified(params), audioRes, lo2, hi2, 0.05)
	if !rep2.F2c {
		t.Fatalf("expected F2c (convex f(1/x)) on range [%v,%v]", lo2, hi2)
	}
	if rep2.Verdict != PredictNonConservative {
		t.Fatalf("verdict = %v, want non-conservative (%+v)", rep2.Verdict, rep2)
	}
	if audioRes.Normalized <= 1 {
		t.Fatalf("prediction non-conservative but measured %v", audioRes.Normalized)
	}
}

func TestVerdictString(t *testing.T) {
	t.Parallel()
	if PredictConservative.String() != "conservative" ||
		PredictNonConservative.String() != "non-conservative" ||
		Inconclusive.String() != "inconclusive" {
		t.Fatal("verdict strings wrong")
	}
}

// Phase (slow-transition) losses create a positive covariance, taking the
// run outside Theorem 1's hypotheses — the §III-B.2 scenario.
func TestPhaseProcessBreaksC1(t *testing.T) {
	t.Parallel()
	proc := lossmodel.NewTwoPhase(200, 4, 0.02, rng.New(93))
	f := formula.NewSQRT(formula.DefaultParams())
	res := RunBasic(basicCfg(f, 8, proc, 150000))
	if res.CovThetaHatNorm <= 0.01 {
		t.Fatalf("phase cov·p² = %v, want clearly positive", res.CovThetaHatNorm)
	}
}

func TestResultFields(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	proc := lossmodel.DesignShiftedExp(0.1, 0.5, rng.New(94))
	res := RunBasic(basicCfg(f, 8, proc, 20000))
	if res.Events != 20000 {
		t.Fatalf("events = %d", res.Events)
	}
	if math.Abs(res.LossEventRate-0.1)/0.1 > 0.05 {
		t.Fatalf("loss-event rate = %v, want ~0.1", res.LossEventRate)
	}
	if res.FormulaRate != f.Rate(res.LossEventRate) {
		t.Fatal("formula rate inconsistent")
	}
	if math.Abs(res.Normalized-res.Throughput/res.FormulaRate) > 1e-12 {
		t.Fatal("normalized inconsistent")
	}
	if res.CVEstimatorSq != res.CVEstimator*res.CVEstimator {
		t.Fatal("cv² inconsistent")
	}
	if res.MeanInterLossTime <= 0 {
		t.Fatal("non-positive mean inter-loss time")
	}
}

func TestConfigPanics(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	proc := lossmodel.NewGeometric(0.1, rng.New(1))
	cases := []func(){
		func() { RunBasic(Config{Weights: estimator.TFRCWeights(2), Process: proc, Events: 10}) },
		func() { RunBasic(Config{Formula: f, Process: proc, Events: 10}) },
		func() { RunBasic(Config{Formula: f, Weights: estimator.TFRCWeights(2), Events: 10}) },
		func() { RunBasic(Config{Formula: f, Weights: estimator.TFRCWeights(2), Process: proc}) },
		func() { RunFixedPacketRate(basicCfg(f, 2, proc, 10), 0) },
		func() { Theorem1Bound(f, 0, 0) },
		func() { Classify(f, Result{}, 5, 5, 0.1) },
		func() { EstimatorRange(basicCfg(f, 2, proc, 10), 0, 0.1, 0.9) },
		func() { EstimatorRange(basicCfg(f, 2, proc, 10), 10, 0.9, 0.1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: for random IID processes and any of the three formulae with
// convex g, the basic control never overshoots materially (Theorem 1 with
// C1 ≈ 0). Uses short runs, so allow generous Monte Carlo slack.
func TestQuickTheorem1(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	fs := []formula.Formula{formula.NewSQRT(params), formula.NewPFTKSimplified(params)}
	seed := uint64(1000)
	check := func(a, b, c uint8) bool {
		seed++
		p := 0.02 + float64(a)/255*0.35
		cv := 0.3 + float64(b)/255*0.69
		f := fs[int(c)%len(fs)]
		proc := lossmodel.DesignShiftedExp(p, cv, rng.New(seed))
		res := RunBasic(basicCfg(f, 4, proc, 8000))
		return res.Normalized <= 1.05
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: comprehensive throughput >= basic throughput for the same
// seed and parameters (Proposition 2), across random settings.
func TestQuickProp2(t *testing.T) {
	t.Parallel()
	params := formula.DefaultParams()
	seed := uint64(5000)
	check := func(a, b uint8) bool {
		seed++
		p := 0.05 + float64(a)/255*0.3
		cv := 0.4 + float64(b)/255*0.55
		f := formula.NewPFTKSimplified(params)
		basic := RunBasic(basicCfg(f, 8, lossmodel.DesignShiftedExp(p, cv, rng.New(seed)), 6000))
		comp := RunComprehensive(basicCfg(f, 8, lossmodel.DesignShiftedExp(p, cv, rng.New(seed)), 6000))
		return comp.Throughput >= basic.Throughput*(1-1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
