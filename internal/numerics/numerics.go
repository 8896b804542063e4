// Package numerics provides the small numerical toolbox the reproduction
// needs and that the Go standard library lacks: convex closures of
// sampled functions (for Proposition 4 and Figure 2 of the paper), grid
// convexity checks, Brent root finding (for inverting throughput
// formulae), and trapezoid quadrature.
package numerics

import (
	"errors"
	"math"
	"sort"
)

// Func is a real function of one real variable.
type Func func(float64) float64

// Grid returns n points evenly spaced on [lo, hi] inclusive.
// It panics if n < 2 or hi <= lo.
func Grid(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("numerics: grid needs at least 2 points")
	}
	if hi <= lo {
		panic("numerics: empty grid interval")
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	xs[n-1] = hi // avoid accumulation error at the right edge
	return xs
}

// LogGrid returns n points geometrically spaced on [lo, hi] inclusive,
// with lo > 0. Useful for loss-event-rate sweeps spanning decades.
func LogGrid(lo, hi float64, n int) []float64 {
	if lo <= 0 {
		panic("numerics: log grid needs positive lower bound")
	}
	if n < 2 || hi <= lo {
		panic("numerics: bad log grid")
	}
	xs := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range xs {
		xs[i] = x
		x *= ratio
	}
	xs[n-1] = hi
	return xs
}

// PiecewiseLinear is a piecewise-linear function through sorted sample
// points. It is the representation of a convex closure g** computed from
// a sampled g.
type PiecewiseLinear struct {
	xs, ys []float64
}

// NewPiecewiseLinear builds an interpolant from points that must be
// strictly increasing in x. It panics on fewer than 2 points or
// non-increasing x.
func NewPiecewiseLinear(xs, ys []float64) *PiecewiseLinear {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("numerics: piecewise-linear needs >= 2 matched points")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			panic("numerics: piecewise-linear x not strictly increasing")
		}
	}
	return &PiecewiseLinear{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
}

// Eval evaluates the interpolant, clamping outside the domain to the
// boundary segments extended linearly.
func (p *PiecewiseLinear) Eval(x float64) float64 {
	i := sort.SearchFloat64s(p.xs, x)
	switch {
	case i == 0:
		i = 1
	case i >= len(p.xs):
		i = len(p.xs) - 1
	}
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Domain returns the x-range spanned by the interpolant's knots.
func (p *PiecewiseLinear) Domain() (lo, hi float64) {
	return p.xs[0], p.xs[len(p.xs)-1]
}

// ConvexClosure samples f on the given grid and returns the largest
// convex function lying below the samples — the convex closure g** of the
// paper's Proposition 4 — as a piecewise-linear function through the
// lower convex hull of the sampled points (Andrew's monotone chain).
//
// The grid must be strictly increasing with at least 2 points.
func ConvexClosure(f Func, grid []float64) *PiecewiseLinear {
	if len(grid) < 2 {
		panic("numerics: convex closure needs >= 2 grid points")
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(grid))
	for i, x := range grid {
		if i > 0 && x <= grid[i-1] {
			panic("numerics: convex closure grid not increasing")
		}
		pts[i] = pt{x, f(x)}
	}
	// Lower hull: keep only right turns (cross product <= 0 removes
	// points above the hull).
	hull := make([]pt, 0, len(pts))
	for _, p := range pts {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// If b is above segment a-p, drop b.
			cross := (b.x-a.x)*(p.y-a.y) - (b.y-a.y)*(p.x-a.x)
			if cross < 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	xs := make([]float64, len(hull))
	ys := make([]float64, len(hull))
	for i, p := range hull {
		xs[i], ys[i] = p.x, p.y
	}
	return NewPiecewiseLinear(xs, ys)
}

// DeviationFromConvexity returns r = sup_x g(x)/g**(x) over the grid,
// together with the x attaining the sup. This is the paper's measure of
// how far g deviates from convexity (r = 1.0026 for PFTK-standard with
// r=1, q=4r, b=2). g must be positive on the grid.
func DeviationFromConvexity(g Func, grid []float64) (ratio, argmax float64) {
	closure := ConvexClosure(g, grid)
	ratio = 1
	argmax = grid[0]
	for _, x := range grid {
		gx := g(x)
		cx := closure.Eval(x)
		if cx <= 0 {
			panic("numerics: convex closure non-positive; g must be positive")
		}
		if rr := gx / cx; rr > ratio {
			ratio = rr
			argmax = x
		}
	}
	return ratio, argmax
}

// IsConvexOnGrid reports whether f has non-negative discrete second
// differences at every interior grid point, within tolerance tol scaled
// by the local magnitude. A true result on a fine grid is strong evidence
// of convexity on the interval.
func IsConvexOnGrid(f Func, grid []float64, tol float64) bool {
	nonConvex, _ := CurvatureBreaks(f, grid, tol)
	return nonConvex < 0
}

// IsConcaveOnGrid reports whether f has non-positive discrete second
// differences at every interior grid point, within tolerance.
func IsConcaveOnGrid(f Func, grid []float64, tol float64) bool {
	_, nonConcave := CurvatureBreaks(f, grid, tol)
	return nonConcave < 0
}

// CurvatureBreaks returns the first interior grid index at which f's
// discrete second difference is negative and the last at which it is
// positive, each beyond tolerance tol scaled by the local magnitude, or
// -1 where there is none. A point's second difference depends only on
// its two neighbours, so f is convex on grid[:i+1] exactly when i <=
// nonConvex (or nonConvex < 0), and concave on grid[i:] exactly when
// i >= nonConcave.
func CurvatureBreaks(f Func, grid []float64, tol float64) (nonConvex, nonConcave int) {
	if len(grid) < 3 {
		panic("numerics: convexity check needs >= 3 grid points")
	}
	ys := make([]float64, len(grid))
	for i, x := range grid {
		ys[i] = f(x)
	}
	nonConvex, nonConcave = -1, -1
	for i := 1; i+1 < len(grid); i++ {
		h1 := grid[i] - grid[i-1]
		h2 := grid[i+1] - grid[i]
		// Divided-difference second derivative estimate.
		d2 := 2 * (ys[i-1]/(h1*(h1+h2)) - ys[i]/(h1*h2) + ys[i+1]/(h2*(h1+h2)))
		scale := math.Max(1, math.Abs(ys[i]))
		if d2 < -tol*scale && nonConvex < 0 {
			nonConvex = i
		}
		if d2 > tol*scale {
			nonConcave = i
		}
	}
	return nonConvex, nonConcave
}

// ErrNoBracket is returned by Brent when f(a) and f(b) have the same sign.
var ErrNoBracket = errors.New("numerics: root not bracketed")

// ErrMaxIter is returned by Brent when the iteration budget is exhausted.
var ErrMaxIter = errors.New("numerics: brent did not converge")

// Brent finds a root of f in [a, b] using Brent's method. f(a) and f(b)
// must have opposite signs. tol is the absolute x tolerance.
func Brent(f Func, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNoBracket
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for iter := 0; iter < 200; iter++ {
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		bisect := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if bisect {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
	}
	return 0, ErrMaxIter
}

// Trapezoid integrates f over [a, b] with n panels.
func Trapezoid(f Func, a, b float64, n int) float64 {
	if n < 1 {
		panic("numerics: trapezoid needs >= 1 panel")
	}
	h := (b - a) / float64(n)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < n; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h
}

// MinOnGrid returns the grid point minimizing f and the minimum value.
func MinOnGrid(f Func, grid []float64) (argmin, min float64) {
	if len(grid) == 0 {
		panic("numerics: empty grid")
	}
	argmin, min = grid[0], f(grid[0])
	for _, x := range grid[1:] {
		if y := f(x); y < min {
			argmin, min = x, y
		}
	}
	return argmin, min
}

// MaxOnGrid returns the grid point maximizing f and the maximum value.
func MaxOnGrid(f Func, grid []float64) (argmax, max float64) {
	if len(grid) == 0 {
		panic("numerics: empty grid")
	}
	argmax, max = grid[0], f(grid[0])
	for _, x := range grid[1:] {
		if y := f(x); y > max {
			argmax, max = x, y
		}
	}
	return argmax, max
}
