package core

import (
	"fmt"
	"strings"

	"repro/internal/formula"
	"repro/internal/numerics"
)

// FormulaReport is a designer-facing analysis of a loss-throughput
// function, automating the checks the paper's conclusion recommends
// before adopting a formula: where the convexity conditions of
// Theorems 1 and 2 hold, and how large the worst-case overshoot under
// condition (C1) can be (Proposition 4).
type FormulaReport struct {
	// Name is the formula's name.
	Name string
	// GConvexEverywhere reports condition (F1) on the whole range.
	GConvexEverywhere bool
	// Prop4Ratio is the deviation-from-convexity ratio r = sup g/g**;
	// under (C1) the control cannot overshoot f(p) by more than this.
	Prop4Ratio float64
	// Prop4ArgMax is the loss interval at which the ratio is attained.
	Prop4ArgMax float64
	// ConcaveAbove is the smallest grid x above which f(1/x) is concave
	// (condition (F2): the "safe" rare-loss region of Theorem 2);
	// +Inf if nowhere on the range.
	ConcaveAbove float64
	// ConvexBelow is the largest grid x below which f(1/x) is strictly
	// convex (condition (F2c): the non-conservative heavy-loss region);
	// 0 if nowhere on the range.
	ConvexBelow float64
	// RangeLo and RangeHi are the analyzed loss-interval bounds.
	RangeLo, RangeHi float64
}

// AnalyzeFormula inspects f over the loss-interval range [xlo, xhi]
// (x = 1/p, so small x is heavy loss) on an n-point grid.
func AnalyzeFormula(f formula.Formula, xlo, xhi float64, n int) FormulaReport {
	if xlo <= 0 || xhi <= xlo || n < 16 {
		panic("core: invalid formula analysis range")
	}
	grid := numerics.Grid(xlo, xhi, n)
	rep := FormulaReport{
		Name:    f.Name(),
		RangeLo: xlo,
		RangeHi: xhi,
	}
	rep.GConvexEverywhere = numerics.IsConvexOnGrid(formula.G(f), grid, 1e-9)
	rep.Prop4Ratio, rep.Prop4ArgMax = formula.DeviationFromConvexity(f, xlo, xhi, n)

	// ConcaveAbove is the smallest grid x such that f(1/x) is concave on
	// [x, xhi], and ConvexBelow the largest such that it is convex on
	// [xlo, x], each side keeping at least 17 grid points. A point's
	// second difference does not depend on the slice around it, so one
	// pass over the grid finds both: the suffix from the last concavity
	// break on, the prefix up to the first convexity break.
	nonConvex, nonConcave := numerics.CurvatureBreaks(formula.F1x(f), grid, 1e-9)
	rep.ConcaveAbove = rep.RangeHi
	if i := max(0, nonConcave); i+16 < n {
		rep.ConcaveAbove = grid[i]
	}
	i := n - 1
	if nonConvex >= 0 {
		i = nonConvex
	}
	if i >= 16 {
		rep.ConvexBelow = grid[i]
	}
	return rep
}

// String renders the report as a short designer-readable summary.
func (r FormulaReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on loss intervals [%.3g, %.3g]:\n", r.Name, r.RangeLo, r.RangeHi)
	fmt.Fprintf(&b, "  (F1) 1/f(1/x) convex everywhere: %v\n", r.GConvexEverywhere)
	fmt.Fprintf(&b, "  Prop 4 overshoot bound under (C1): %.5f (at x = %.4g)\n",
		r.Prop4Ratio, r.Prop4ArgMax)
	fmt.Fprintf(&b, "  (F2) f(1/x) concave for x >= %.4g (rare-loss safe region)\n", r.ConcaveAbove)
	if r.ConvexBelow > 0 {
		fmt.Fprintf(&b, "  (F2c) f(1/x) strictly convex for x <= %.4g — non-conservative\n", r.ConvexBelow)
		fmt.Fprintf(&b, "        under (C2c)+(V) for loss-event rates above %.4g\n", 1/r.ConvexBelow)
	} else {
		fmt.Fprintf(&b, "  (F2c) no strictly convex heavy-loss region found\n")
	}
	return b.String()
}
