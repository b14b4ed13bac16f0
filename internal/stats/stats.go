// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, quantiles, ordinary and log–log
// least squares (for extracting scaling exponents from finite-size
// sweeps), and monotone threshold location (for percolation
// critical-probability estimation).
package stats

import (
	"math"
	"sort"
)

// Summary holds the moments of a sample. N counts the finite
// observations the moments were computed over; Nonfinite counts the
// NaN/±Inf inputs that were skipped.
type Summary struct {
	N         int
	Mean      float64
	Var       float64 // unbiased sample variance
	Std       float64
	Min       float64
	Max       float64
	StdErr    float64 // standard error of the mean
	Nonfinite int     // NaN/±Inf observations skipped
}

// Summarize computes summary statistics of xs. An empty sample yields a
// zero Summary. Non-finite values are skipped and counted in Nonfinite
// — the same accounting the sweep engine applies to metric values — so
// the result does not depend on where in the slice a NaN sits. (The old
// behavior seeded Min/Max from xs[0]: a leading NaN poisoned every
// field while a mid-slice NaN silently vanished from Min/Max only.)
func Summarize(xs []float64) Summary {
	var s Summary
	sum := 0.0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			s.Nonfinite++
			continue
		}
		if s.N == 0 {
			s.Min, s.Max = x, x
		} else {
			if x < s.Min {
				s.Min = x
			}
			if x > s.Max {
				s.Max = x
			}
		}
		s.N++
		sum += x
	}
	if s.N == 0 {
		return s
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
		s.StdErr = s.Std / math.Sqrt(float64(s.N))
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Fit holds a least-squares line y = Slope·x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the ordinary least-squares line through (xs, ys).
// It panics if the slices differ in length or have fewer than two points.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) {
		panic("stats: LinearFit length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		panic("stats: LinearFit needs at least 2 points")
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Slope: math.NaN(), Intercept: math.NaN(), R2: 0}
	}
	f := Fit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot <= 0 {
		f.R2 = 1
		return f
	}
	var ssRes float64
	for i := range xs {
		r := ys[i] - (f.Slope*xs[i] + f.Intercept)
		ssRes += r * r
	}
	f.R2 = 1 - ssRes/ssTot
	return f
}

// PowerLawFit fits y = C·x^k by least squares in log–log space and
// returns (k, C, R²). All inputs must be strictly positive.
func PowerLawFit(xs, ys []float64) (exponent, coeff, r2 float64) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: PowerLawFit needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	f := LinearFit(lx, ly)
	return f.Slope, math.Exp(f.Intercept), f.R2
}

// MonotoneThreshold locates the crossing point of a noisy monotone
// function f: [lo, hi] → ℝ against target by bisection, assuming f is
// (statistically) increasing. iters bisection steps are performed; the
// returned value is the midpoint of the final bracket.
//
// This is the workhorse of critical-probability estimation: f(p) is a
// Monte-Carlo mean of γ(G^(p)) and the threshold is where it crosses a
// small constant.
func MonotoneThreshold(lo, hi, target float64, iters int, f func(x float64) float64) float64 {
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
