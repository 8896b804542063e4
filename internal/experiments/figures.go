package experiments

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/cbr"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/numerics"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/tfrc"
)

// Sizing bundles the Monte Carlo and simulation effort knobs so tests
// and benches can run scaled-down versions of every figure.
type Sizing struct {
	// Events is the Monte Carlo loss-event budget per point.
	Events int
	// SimFactor scales packet-level run durations (1 = full).
	SimFactor float64
	// Pairs is the connection sweep for the ns-2-style experiments.
	Pairs []int
	// PairsCap truncates profile sweeps (0 = all).
	PairsCap int
	// Shards, when above 1, runs the scenarios that support it (the
	// multi-hop, routed-reverse and scale-out families — Sharded in the
	// registry) on the space-parallel sharded engine with at most that
	// many domains per simulation. Output is byte-identical at any
	// value; scenarios without sharded support ignore it.
	Shards int
}

// Full is the publication-grade sizing.
var Full = Sizing{Events: 200000, SimFactor: 1, Pairs: []int{1, 2, 4, 8, 16, 32, 64}}

// Quick is a fast sizing for tests and benches.
var Quick = Sizing{Events: 20000, SimFactor: 0.15, Pairs: []int{1, 4, 8}, PairsCap: 3}

// NS2Profile mirrors the paper's ns-2 setup: 15 Mb/s RED bottleneck,
// RTT about 50 ms, paper RED thresholds over the bandwidth-delay
// product.
func NS2Profile() Profile {
	return Profile{
		Name: "ns2", Capacity: 1.875e6, Queue: RED,
		BDPPackets: 1.875e6 / 1000 * 0.05,
		BaseDelay:  0.01, RevDelay: 0.03,
		Comprehensive: true,
		Duration:      400, Warmup: 60,
	}
}

func init() {
	register(&Scenario{Name: "fig1",
		Note: "formula landscape: f(1/x) and g = 1/f(1/x) for the three formulae",
		Plan: tablePlan("fig1", func(Sizing) *Table { return Fig1() })})
	register(&Scenario{Name: "fig2",
		Note: "deviation from convexity of PFTK-standard g, plus the summary ratios",
		Plan: combinePlans(
			tablePlan("fig2", func(Sizing) *Table { return Fig2() }),
			planFig2Summary)})
	register(&Scenario{Name: "fig3",
		Note: "basic control normalized throughput vs p (SQRT and PFTK-simplified panels)",
		Plan: combinePlans(planFig3(tfrc.SQRT), planFig3(tfrc.PFTKSimplified))})
	register(&Scenario{Name: "fig3c",
		Note: "comprehensive control normalized throughput vs p",
		Plan: planFig3Comprehensive})
	register(&Scenario{Name: "fig4",
		Note: "basic control normalized throughput vs cv[θ] at p = 0.01 and 0.1",
		Plan: combinePlans(planFig4(0.01, "fig4-p001"), planFig4(0.1, "fig4-p01"))})
	register(&Scenario{Name: "fig5",
		Note: "TFRC normalized throughput and cov[θ,θ̂]p² vs p (ns-2-style RED)",
		Plan: planFig5})
	register(&Scenario{Name: "fig6",
		Note: "audio sender through Bernoulli dropper vs p",
		Plan: planFig6})
	register(&Scenario{Name: "fig7",
		Note: "loss-event rates of TFRC/TCP/Poisson vs number of connections",
		Plan: planFig7})
	register(&Scenario{Name: "fig8",
		Note: "TFRC/TCP throughput ratio vs number of connections",
		Plan: planFig8})
	register(&Scenario{Name: "fig9",
		Note: "TCP throughput vs PFTK-standard prediction, per flow",
		Plan: planFig9})
	register(&Scenario{Name: "fig10",
		Note: "normalized covariance per profile (C1 check)",
		Plan: planFig10})
	register(&Scenario{Name: "fig11",
		Note: "TFRC/TCP throughput ratio vs p on the WAN profiles",
		Plan: planFriendliness("fig11", WANProfiles)})
	register(&Scenario{Name: "fig12-15",
		Note: "TCP-friendliness breakdown on the WAN profiles",
		Plan: planBreakdown("fig12-15", WANProfiles)})
	register(&Scenario{Name: "fig16",
		Note: "TFRC/TCP throughput ratio vs p on the lab profiles",
		Plan: planFriendliness("fig16", func() []Profile { return []Profile{LabDT100, LabRED} })})
	register(&Scenario{Name: "fig17",
		Note: "p'(TCP)/p(TFRC) over DropTail buffer b: isolation and competing",
		Plan: planFig17})
	register(&Scenario{Name: "fig18-19",
		Note: "TCP-friendliness breakdown on the lab profiles",
		Plan: planBreakdown("fig18-19", func() []Profile { return []Profile{LabDT100, LabRED} })})
	register(&Scenario{Name: "tableI",
		Note: "WAN profile stand-ins for the paper's Table I",
		Plan: tablePlan("tableI", func(Sizing) *Table { return TableI() })})
	register(&Scenario{Name: "claim3",
		Note: "many-sources limit: p seen by TCP / EBRC(L) / Poisson",
		Plan: tablePlan("claim3", func(Sizing) *Table { return Claim3() })})
	register(&Scenario{Name: "claim4",
		Note: "AIMD vs EBRC loss-event rate ratio: analytic and fluid sim",
		Plan: planClaim4})
}

// Fig1 tabulates the functions of Figure 1: x, f(1/x) and 1/f(1/x) for
// SQRT, PFTK-standard and PFTK-simplified with r = 1, q = 4r.
func Fig1() *Table {
	t := &Table{
		Name:    "fig1",
		Note:    "x, f(1/x) and 1/f(1/x) for SQRT / PFTK-standard / PFTK-simplified (r=1, q=4r)",
		Columns: []string{"x", "sqrt_f", "pftkstd_f", "pftksimp_f", "sqrt_g", "pftkstd_g", "pftksimp_g"},
	}
	fs := formula.All(formula.DefaultParams())
	for _, x := range numerics.Grid(1.0, 50, 99) {
		row := []float64{x}
		for _, f := range fs {
			row = append(row, formula.F1x(f)(x))
		}
		for _, f := range fs {
			row = append(row, formula.G(f)(x))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig2 tabulates Figure 2: g(x) = 1/f(1/x) for PFTK-standard with b = 1
// (the paper's Figure 2 setting, see DESIGN.md errata), its convex
// closure, and the ratio; the last row's ratio column attains the
// deviation bound r ≈ 1.0026 near x = 3.375.
func Fig2() *Table {
	t := &Table{
		Name:    "fig2",
		Note:    "PFTK-standard g, convex closure g**, and g/g** around the kink (b=1)",
		Columns: []string{"x", "g", "gstar", "ratio"},
	}
	f := formula.NewPFTKStandard(formula.Params{R: 1, Q: 4, B: 1})
	g := formula.G(f)
	grid := numerics.Grid(1.01, 50, 20000)
	closure := numerics.ConvexClosure(g, grid)
	for _, x := range numerics.Grid(3.25, 3.5, 26) {
		gx, cx := g(x), closure.Eval(x)
		t.AddRow(x, gx, cx, gx/cx)
	}
	return t
}

// planFig2Summary computes the deviation ratio per b as one job each.
func planFig2Summary(Sizing) ([]runner.Job, FoldFunc) {
	bs := []float64{1, 2}
	jobs := make([]runner.Job, len(bs))
	for i, b := range bs {
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("fig2-summary b=%g", b),
			Run: func(context.Context) any {
				f := formula.NewPFTKStandard(formula.Params{R: 1, Q: 4, B: b})
				ratio, arg := formula.DeviationFromConvexity(f, 1.01, 50, 40000)
				return [2]float64{ratio, arg}
			},
		}
	}
	fold := func(results []any) []*Table {
		t := &Table{
			Name:    "fig2-summary",
			Note:    "deviation-from-convexity ratio r = sup g/g** for PFTK-standard",
			Columns: []string{"b", "ratio", "argmax_x"},
		}
		for i, b := range bs {
			ra, ok := results[i].([2]float64)
			if !ok {
				continue // job lost under a hardened executor
			}
			t.AddRow(b, ra[0], ra[1])
		}
		return []*Table{t}
	}
	return jobs, fold
}

// mcGridPlan is the shared shape of Figures 3, 3-comprehensive and 4: a
// Monte Carlo sweep over an x-axis and the window L, one job per cell,
// seeds assigned in row-major order from seed0+1.
func mcGridPlan(name, note, xcol string, xs []float64, seed0 uint64,
	run func(x float64, L int, seed uint64, sz Sizing) float64) PlanFunc {
	Ls := []int{1, 2, 4, 8, 16}
	return func(sz Sizing) ([]runner.Job, FoldFunc) {
		var jobs []runner.Job
		seed := seed0
		for _, x := range xs {
			for _, L := range Ls {
				seed++
				x, L, seed := x, L, seed
				jobs = append(jobs, runner.Job{
					Name: fmt.Sprintf("%s %s=%g L=%d", name, xcol, x, L),
					Seed: seed,
					Run:  func(context.Context) any { return run(x, L, seed, sz) },
				})
			}
		}
		fold := func(results []any) []*Table {
			t := &Table{Name: name, Note: note,
				Columns: []string{xcol, "L1", "L2", "L4", "L8", "L16"}}
		rows:
			for r, x := range xs {
				row := []float64{x}
				for _, res := range results[r*len(Ls) : (r+1)*len(Ls)] {
					v, ok := res.(float64)
					if !ok {
						continue rows // a job of the row was lost: no row
					}
					row = append(row, v)
				}
				t.AddRow(row...)
			}
			return []*Table{t}
		}
		return jobs, fold
	}
}

// planFig3 is one panel of Figure 3: normalized throughput of the basic
// control versus p with cv[θ] = 1 - 1/1000, for L in {1, 2, 4, 8, 16}.
func planFig3(kind tfrc.FormulaKind) PlanFunc {
	var f formula.Formula
	name := "fig3-sqrt"
	switch kind {
	case tfrc.SQRT:
		f = formula.NewSQRT(formula.DefaultParams())
	case tfrc.PFTKSimplified:
		f = formula.NewPFTKSimplified(formula.DefaultParams())
		name = "fig3-pftksimp"
	default:
		panic("experiments: Fig3 takes SQRT or PFTKSimplified")
	}
	cv := 1 - 1.0/1000
	return mcGridPlan(name, "basic control normalized throughput vs p, cv=1-1/1000", "p",
		[]float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}, 40,
		func(p float64, L int, seed uint64, sz Sizing) float64 {
			return core.RunBasic(core.Config{
				Formula: f,
				Weights: estimator.TFRCWeights(L),
				Process: lossmodel.DesignShiftedExp(p, cv, rng.New(seed)),
				Events:  sz.Events,
			}).Normalized
		})
}

// planFig3Comprehensive runs the same sweep with the comprehensive
// control (the paper reports the same shape with less pronounced
// effects).
var planFig3Comprehensive = func() PlanFunc {
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	cv := 1 - 1.0/1000
	return mcGridPlan("fig3-comprehensive",
		"comprehensive control normalized throughput vs p (PFTK-simplified)", "p",
		[]float64{0.01, 0.1, 0.2, 0.3, 0.4}, 140,
		func(p float64, L int, seed uint64, sz Sizing) float64 {
			return core.RunComprehensive(core.Config{
				Formula: f,
				Weights: estimator.TFRCWeights(L),
				Process: lossmodel.DesignShiftedExp(p, cv, rng.New(seed)),
				Events:  sz.Events,
			}).Normalized
		})
}()

// planFig4 is Figure 4 at one p: normalized throughput of the basic
// control versus cv[θ], PFTK-simplified, L in {1, 2, 4, 8, 16}.
func planFig4(p float64, name string) PlanFunc {
	if p <= 0 || p > 1 {
		panic("experiments: Fig4 needs p in (0,1]")
	}
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	return mcGridPlan(name,
		"basic control normalized throughput vs cv[θ] (PFTK-simplified)", "cv",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999}, 240,
		func(cv float64, L int, seed uint64, sz Sizing) float64 {
			return core.RunBasic(core.Config{
				Formula: f,
				Weights: estimator.TFRCWeights(L),
				Process: lossmodel.DesignShiftedExp(p, cv, rng.New(seed)),
				Events:  sz.Events,
			}).Normalized
		})
}

// lpCells expands the ns-2-style L × pairs sweep shared by Figures 5,
// 7 and 8, assigning seeds in row-major order from seed0+1.
func lpCells(figure string, sz Sizing, seed0 uint64, mut func(*SimConfig)) []cell[SimConfig] {
	pr := NS2Profile().Scale(sz.SimFactor, 0)
	var cells []cell[SimConfig]
	seed := seed0
	for _, L := range []int{2, 4, 8, 16} {
		for _, pairs := range sz.Pairs {
			seed++
			cfg := pr.Config(pairs, L, seed)
			if mut != nil {
				mut(&cfg)
			}
			cells = append(cells, cell[SimConfig]{
				name: fmt.Sprintf("%s L=%d pairs=%d", figure, L, pairs),
				cfg:  cfg, meta: []float64{float64(L), float64(pairs)},
			})
		}
	}
	return cells
}

// profileCells expands the per-profile pair sweep shared by Figures
// 10, 11, 16 and the breakdowns (window L = 8 throughout).
func profileCells(figure string, profiles []Profile, sz Sizing, seed0 uint64) []cell[SimConfig] {
	var cells []cell[SimConfig]
	seed := seed0
	for pi, pr := range profiles {
		pr = pr.Scale(sz.SimFactor, sz.PairsCap)
		for _, pairs := range pr.Pairs {
			seed++
			cells = append(cells, cell[SimConfig]{
				name: fmt.Sprintf("%s %s pairs=%d", figure, pr.Name, pairs),
				cfg:  pr.Config(pairs, 8, seed), meta: []float64{float64(pi), float64(pairs)},
			})
		}
	}
	return cells
}

// planFig5 reproduces Figure 5: TFRC over the ns-2-style RED bottleneck,
// sweeping the number of connections to sweep p. For each L it reports
// the loss-event rate, the normalized throughput x̄/f(p, r) with
// PFTK-standard, and the normalized covariance cov[θ0,θ̂0]·p².
func planFig5(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "fig5",
		Note:    "TFRC normalized throughput and cov[θ,θ̂]p² vs p (ns-2-style RED)",
		Columns: []string{"L", "pairs", "p", "normalized", "covnorm"},
	}
	return gridPlan(t, lpCells("fig5", sz, 340, nil),
		func(c cell[SimConfig], res SimResult) [][]float64 {
			cls := res.TFRC
			if cls.Events == 0 || cls.MeanRTT <= 0 {
				return nil
			}
			return [][]float64{c.row(cls.LossEventRate, pftkNorm(cls), cls.CovNorm)}
		})
}

// planFig6 reproduces Figure 6: the audio sender (fixed 20 ms packet
// spacing, equation-modulated packet length) through a Bernoulli
// dropper, L = 4: normalized throughput and squared CV of θ̂ versus p
// for the three formulae.
func planFig6(sz Sizing) ([]runner.Job, FoldFunc) {
	params := formula.ParamsForRTT(0.2)
	ps := []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25}
	fs := formula.All(params)
	var jobs []runner.Job
	seed := uint64(440)
	for _, p := range ps {
		for _, f := range fs {
			seed++
			p, f, seed := p, f, seed
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("fig6 %s p=%g", f.Name(), p),
				Seed: seed,
				Run: func(context.Context) any {
					return cbr.NewAudio(f, 4, 0.02, p, seed).Run(sz.Events, sz.Events/10)
				},
			})
		}
	}
	fold := func(results []any) []*Table {
		t := &Table{
			Name:    "fig6",
			Note:    "audio sender through Bernoulli dropper: normalized throughput and cv²[θ̂] vs p (L=4)",
			Columns: []string{"p", "sqrt_norm", "pftkstd_norm", "pftksimp_norm", "cv2"},
		}
	rows:
		for r, p := range ps {
			row := []float64{p}
			var cv2 float64
			for _, res := range results[r*len(fs) : (r+1)*len(fs)] {
				ar, ok := res.(cbr.AudioResult)
				if !ok {
					continue rows // a job of the row was lost: no row
				}
				row = append(row, ar.Normalized)
				cv2 = ar.CVEstimatorSq
			}
			row = append(row, cv2)
			t.AddRow(row...)
		}
		return []*Table{t}
	}
	return jobs, fold
}

// planFig7 reproduces Figure 7: loss-event rates of TFRC (p), TCP (p')
// and a Poisson probe (p”) versus the number of connections, for each
// L. Claim 3 predicts p' <= p <= p” with p increasing in L.
func planFig7(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "fig7",
		Note:    "loss-event rates of TFRC/TCP/Poisson vs number of connections",
		Columns: []string{"L", "pairs", "p_tfrc", "p_tcp", "p_poisson"},
	}
	probe := func(cfg *SimConfig) { cfg.ProbeRate = 10 } // light Poisson probe
	return gridPlan(t, lpCells("fig7", sz, 540, probe),
		func(c cell[SimConfig], res SimResult) [][]float64 {
			return [][]float64{c.row(res.TFRC.LossEventRate, res.TCP.LossEventRate,
				res.Poisson.LossEventRate)}
		})
}

// planFig8 reproduces Figure 8: the ratio of TFRC to TCP throughput
// versus the number of connections, per L.
func planFig8(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "fig8",
		Note:    "TFRC/TCP throughput ratio vs number of connections",
		Columns: []string{"L", "pairs", "ratio"},
	}
	return gridPlan(t, lpCells("fig8", sz, 640, nil),
		func(c cell[SimConfig], res SimResult) [][]float64 {
			if res.TCP.Throughput <= 0 {
				return nil
			}
			return [][]float64{c.row(res.TFRC.Throughput / res.TCP.Throughput)}
		})
}

// planFig9 reproduces Figure 9: per-TCP-flow throughput against the
// PFTK-standard prediction f(p', r') — the "obedience of TCP to its
// formula" scatter. TCP falls below the formula except at large
// throughputs (few connections).
func planFig9(sz Sizing) ([]runner.Job, FoldFunc) {
	pr := NS2Profile().Scale(sz.SimFactor, 0)
	var cells []cell[SimConfig]
	seed := uint64(740)
	for _, pairs := range sz.Pairs {
		seed++
		cells = append(cells, cell[SimConfig]{
			name: fmt.Sprintf("fig9 pairs=%d", pairs),
			cfg:  pr.Config(pairs, 8, seed), meta: []float64{float64(pairs)},
		})
	}
	t := &Table{
		Name:    "fig9",
		Note:    "TCP throughput vs PFTK-standard prediction, per flow",
		Columns: []string{"pairs", "predicted", "measured"},
	}
	return gridPlan(t, cells, func(c cell[SimConfig], res SimResult) [][]float64 {
		var rows [][]float64
		for _, st := range res.TCPPerFlow {
			if st.LossEventRate <= 0 || st.MeanRTT <= 0 {
				continue
			}
			f := formula.NewPFTKStandard(formula.ParamsForRTT(st.MeanRTT))
			rows = append(rows, c.row(f.Rate(st.LossEventRate), st.Throughput))
		}
		return rows
	})
}

// planFig10 reproduces Figure 10: the normalized covariance
// cov[θ0,θ̂0]·p² per testbed/WAN profile (the paper's box plots; we
// report the pooled value per pair count and profile). Values near zero
// confirm condition (C1) of Claim 1.
func planFig10(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "fig10",
		Note:    "normalized covariance cov[θ,θ̂]p² per profile (C1 check)",
		Columns: []string{"profile", "pairs", "covnorm"},
	}
	cells := profileCells("fig10", append(LabProfiles(), WANProfiles()...), sz, 840)
	return gridPlan(t, cells, func(c cell[SimConfig], res SimResult) [][]float64 {
		if res.TFRC.Events < 10 {
			return nil
		}
		return [][]float64{c.row(res.TFRC.CovNorm)}
	})
}

// planFriendliness is the shared plan of Figures 11 and 16: the
// TFRC/TCP throughput ratio versus p per profile.
func planFriendliness(name string, profiles func() []Profile) PlanFunc {
	return func(sz Sizing) ([]runner.Job, FoldFunc) {
		t := &Table{
			Name:    name,
			Note:    "TFRC/TCP throughput ratio vs p per profile",
			Columns: []string{"profile", "pairs", "p", "ratio"},
		}
		cells := profileCells(name, profiles(), sz, 940)
		return gridPlan(t, cells, func(c cell[SimConfig], res SimResult) [][]float64 {
			if res.TCP.Throughput <= 0 {
				return nil
			}
			return [][]float64{c.row(res.TFRC.LossEventRate, res.TFRC.Throughput/res.TCP.Throughput)}
		})
	}
}

// planBreakdown reproduces Figures 12-15 (WAN) and 18-19 (lab): for
// each profile and pair count, the four sub-condition ratios of the
// TCP-friendliness breakdown:
//
//	norm_tfrc = x̄/f(p, r)    (conservativeness)
//	p_ratio   = p'/p          (loss-event rate comparison)
//	rtt_ratio = r'/r          (round-trip time comparison)
//	norm_tcp  = x̄'/f(p', r') (TCP's obedience to the formula)
func planBreakdown(name string, profiles func() []Profile) PlanFunc {
	return func(sz Sizing) ([]runner.Job, FoldFunc) {
		t := &Table{
			Name:    name,
			Note:    "TCP-friendliness breakdown: x/f(p,r), p'/p, r'/r, x'/f(p',r')",
			Columns: []string{"profile", "pairs", "p", "norm_tfrc", "p_ratio", "rtt_ratio", "norm_tcp"},
		}
		cells := profileCells(name, profiles(), sz, 1040)
		return gridPlan(t, cells, func(c cell[SimConfig], res SimResult) [][]float64 {
			tf, tc := res.TFRC, res.TCP
			if tf.Events == 0 || tc.Events == 0 || tf.MeanRTT <= 0 || tc.MeanRTT <= 0 {
				return nil
			}
			return [][]float64{c.row(tf.LossEventRate, pftkNorm(tf),
				tc.LossEventRate/tf.LossEventRate, tc.MeanRTT/tf.MeanRTT, pftkNorm(tc))}
		})
	}
}

// planFig17 reproduces Figure 17: the ratio p'/p of TCP's to TFRC's
// loss-event rate over a DropTail bottleneck with buffer b — each flow
// in isolation (left) and one TCP competing with one TFRC (right).
// Each buffer point expands into three independent sims (TFRC alone,
// TCP alone, both).
func planFig17(sz Sizing) ([]runner.Job, FoldFunc) {
	base := Profile{
		Name: "fig17", Capacity: 1.25e6, Queue: DropTail,
		BaseDelay: 0.01, RevDelay: 0.03, Comprehensive: true,
		Duration: 600, Warmup: 60,
	}
	base = base.Scale(sz.SimFactor, 0)
	bufs := []int{20, 40, 80, 160, 300}
	var jobs []runner.Job
	seed := uint64(1140)
	for _, buf := range bufs {
		seed += 10
		cfgT := base.Config(1, 8, seed)
		cfgT.Buffer = buf
		cfgT.NTCP = 0
		jobs = append(jobs, packetJob(fmt.Sprintf("fig17 buf=%d tfrc-alone", buf), cfgT.spec(), cfgT.result))

		cfgC := base.Config(1, 8, seed+1)
		cfgC.Buffer = buf
		cfgC.NTFRC = 0
		jobs = append(jobs, packetJob(fmt.Sprintf("fig17 buf=%d tcp-alone", buf), cfgC.spec(), cfgC.result))

		cfgBoth := base.Config(1, 8, seed+2)
		cfgBoth.Buffer = buf
		jobs = append(jobs, packetJob(fmt.Sprintf("fig17 buf=%d competing", buf), cfgBoth.spec(), cfgBoth.result))
	}
	fold := func(results []any) []*Table {
		t := &Table{
			Name:    "fig17",
			Note:    "p'(TCP)/p(TFRC) over DropTail buffer b: isolation and competing",
			Columns: []string{"buffer", "isolation_ratio", "competing_ratio"},
		}
		for i, buf := range bufs {
			tfrcAlone, okA := results[3*i].(SimResult)
			tcpAlone, okB := results[3*i+1].(SimResult)
			both, okC := results[3*i+2].(SimResult)
			if !okA || !okB || !okC {
				continue // a leg of the triple was lost under a hardened executor
			}
			iso, comp := 0.0, 0.0
			if tfrcAlone.TFRC.LossEventRate > 0 {
				iso = tcpAlone.TCP.LossEventRate / tfrcAlone.TFRC.LossEventRate
			}
			if both.TFRC.LossEventRate > 0 {
				comp = both.TCP.LossEventRate / both.TFRC.LossEventRate
			}
			t.AddRow(float64(buf), iso, comp)
		}
		return []*Table{t}
	}
	return jobs, fold
}

// TableI tabulates the WAN profile stand-ins for the paper's Table I:
// capacity (packets/second), base RTT in milliseconds, queue kind
// (0 = DropTail) and buffer.
func TableI() *Table {
	t := &Table{
		Name:    "tableI",
		Note:    "WAN profile stand-ins (see Table I of the paper and DESIGN.md substitutions)",
		Columns: []string{"profile", "capacity_pps", "rtt_ms", "queue", "buffer"},
	}
	for i, pr := range WANProfiles() {
		t.AddRow(float64(i), pr.Capacity/1000, (2*pr.BaseDelay+pr.RevDelay)*1000,
			float64(pr.Queue), float64(pr.Buffer))
	}
	return t
}

// Claim3 evaluates the many-sources Markov congestion model: the
// loss-event rate seen by TCP (fully responsive), EBRC for several
// windows, and a Poisson source. Claim 3 predicts the p' <= p <= p”
// ordering with p increasing in L.
func Claim3() *Table {
	t := &Table{
		Name:    "claim3",
		Note:    "many-sources limit: p seen by TCP / EBRC(L) / Poisson",
		Columns: []string{"source", "L", "p_seen"},
	}
	m := analytic.TwoStateCongestion(0.001, 0.08, 0.3)
	f := formula.NewPFTKStandard(formula.ParamsForRTT(0.05))
	tcpP, ebrc, poisson := m.Claim3Ordering(f, []int{2, 4, 8, 16})
	t.AddRow(0, 1, tcpP)
	for i, L := range []int{2, 4, 8, 16} {
		t.AddRow(1, float64(L), ebrc[i])
	}
	t.AddRow(2, 0, poisson)
	return t
}

// planClaim4 evaluates the fixed-capacity competing-senders model: the
// analytic ratio 4/(1+β)² per β, and the fluid simulation's measured
// ratio for the TCP-like β = 1/2 (expected above 1 but less pronounced
// than the analytic value). One fluid sim per β.
func planClaim4(Sizing) ([]runner.Job, FoldFunc) {
	betas := []float64{0.25, 0.5, 0.75}
	jobs := make([]runner.Job, len(betas))
	for i, beta := range betas {
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("claim4 beta=%g", beta),
			Seed: 7,
			Run: func(context.Context) any {
				a := analytic.AIMDParams{Alpha: 1, Beta: beta}
				return analytic.SimulateFluidShared(a, 200, 8, 40000, 7).Ratio
			},
		}
	}
	fold := func(results []any) []*Table {
		t := &Table{
			Name:    "claim4",
			Note:    "AIMD vs EBRC loss-event rate ratio: analytic and shared-link fluid sim",
			Columns: []string{"beta", "analytic_ratio", "fluid_ratio"},
		}
		for i, beta := range betas {
			v, ok := results[i].(float64)
			if !ok {
				continue // job lost under a hardened executor
			}
			a := analytic.AIMDParams{Alpha: 1, Beta: beta}
			t.AddRow(beta, analytic.Claim4Ratio(a), v)
		}
		return []*Table{t}
	}
	return jobs, fold
}
