package spectral

// The tridiagonal side of the Lanczos solver. Lanczos reduces the
// shifted Laplacian to a small symmetric tridiagonal T (diagonal a,
// off-diagonal b, b[i] coupling a[i] and a[i+1]), and the solver only
// ever needs T's largest eigenpair: the eigenvalue at every convergence
// check and at the end, the eigenvector once, to form the Fiedler
// vector. Both come from the LDLᵀ factorisation of T − xI, in O(m) per
// factorisation: Sturm-count bisection finds the eigenvalue, and inverse
// iteration just above it finds the eigenvector. The Lanczos iteration
// itself lives in scratch.go (lanczosScratch).

import "math"

// pivotFloor is the smallest magnitude a pivot of a Sturm count may
// take, the safe minimum scaled by T's largest squared off-diagonal
// (LAPACK's PIVMIN). A smaller pivot is replaced by −pivotFloor, so no
// division overflows.
func pivotFloor(b []float64) float64 {
	bb := 1.0
	for _, x := range b {
		bb = math.Max(bb, x*x)
	}
	return 0x1p-1022 * bb
}

// allBelow reports whether every eigenvalue of T lies below x: whether
// every pivot q_i = (a_i − x) − b_{i−1}²/q_{i−1} of the LDLᵀ
// factorisation of T − xI is negative, which by Sylvester's law of
// inertia means T − xI is negative definite. It is one Sturm count,
// stopped at the first pivot that is not negative.
func allBelow(a, b []float64, x, pivmin float64) bool {
	q := a[0] - x
	for i := 1; ; i++ {
		if math.Abs(q) < pivmin {
			q = -pivmin
		}
		if q >= 0 {
			return false
		}
		if i == len(a) {
			return true
		}
		q = (a[i] - x) - b[i-1]*b[i-1]/q
	}
}

// tridiagTop returns the largest eigenvalue of T by Sturm-count
// bisection, and sigma, the end of the final bracket above it: a point
// allBelow accepted, so every pivot of the LDLᵀ factorisation of
// σI − T is positive (tridiagTopVector factorises there). The bracket
// starts from T's Gershgorin interval. A finite lo, such as the previous
// Ritz value (which by Cauchy interlacing bounds the largest eigenvalue
// of a longer T from below), raises its lower end once one Sturm count
// confirms it; the upper end then comes down to lo + rise (the previous
// Ritz value's own rise), the step quadrupling until a Sturm count
// confirms it. So while the Ritz value converges, bisection halves a
// bracket about as wide as its last rise, not T's whole spectrum. It
// stops when the bracket's ends are adjacent floats.
// len(b) ≥ len(a) − 1 ≥ 0; b past len(a) − 1 is ignored.
func tridiagTop(a, b []float64, lo, rise float64) (top, sigma float64) {
	m := len(a)
	b = b[:m-1]
	gl, gu := math.Inf(1), math.Inf(-1)
	for i, ai := range a {
		r := 0.0
		if i > 0 {
			r += math.Abs(b[i-1])
		}
		if i < m-1 {
			r += math.Abs(b[i])
		}
		gl = math.Min(gl, ai-r)
		gu = math.Max(gu, ai+r)
	}
	pivmin := pivotFloor(b)
	// Widen the Gershgorin interval by LAPACK's rounding allowance
	// (dstebz), so that its ends hold under the computed Sturm counts.
	slack := 2.1*0x1p-52*math.Max(math.Abs(gl), math.Abs(gu))*float64(m) + 4.2*pivmin
	hi := gu + slack
	if lo > gl-slack && lo < hi && !allBelow(a, b, lo, pivmin) {
		for step := math.Max(rise, 0x1p-50*math.Abs(lo)); lo+step < hi; step *= 4 {
			x := lo + step
			if allBelow(a, b, x, pivmin) {
				hi = x
				break
			}
			lo = x
		}
	} else {
		lo = gl - slack
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if allBelow(a, b, mid, pivmin) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo + (hi-lo)/2, hi
}

// tridiagTopVector writes into x the unit eigenvector of T for its
// largest eigenvalue, by inverse iteration at sigma (tridiagTop's upper
// bracket end): σI − T is positive definite there, so its LDLᵀ
// factorisation needs no pivoting, and since σ sits within an ulp or so
// of the eigenvalue each solve multiplies the wanted component by far
// more than any other. Three solves from the all-ones vector, each O(m),
// leave x in the eigenvalue's invariant subspace to working precision
// even when the next eigenvalue is close. A pivot below ε·‖T‖ is raised
// to it, as LAPACK's inverse iteration (dlagts) does, so that a σ that
// lands on the eigenvalue itself gives a large finite solve rather than
// an overflow. d holds the pivots; x and d have length len(a).
func tridiagTopVector(a, b []float64, sigma float64, x, d []float64) {
	m := len(a)
	if m == 1 {
		x[0] = 1
		return
	}
	b = b[:m-1]
	tnorm := 0.0
	for i, ai := range a {
		r := math.Abs(ai)
		if i > 0 {
			r += math.Abs(b[i-1])
		}
		if i < m-1 {
			r += math.Abs(b[i])
		}
		tnorm = math.Max(tnorm, r)
	}
	floor := 0x1p-52 * tnorm
	d[0] = math.Max(sigma-a[0], floor)
	for i := 1; i < m; i++ {
		d[i] = math.Max((sigma-a[i])-b[i-1]*b[i-1]/d[i-1], floor)
	}
	for i := range x {
		x[i] = 1
	}
	for solve := 0; solve < 3; solve++ {
		// σI − T = L·D·Lᵀ with L unit lower bidiagonal, L[i+1][i] =
		// −b[i]/d[i]: solve L·z = x, then D·Lᵀ·x = z.
		for i := 1; i < m; i++ {
			x[i] += b[i-1] / d[i-1] * x[i-1]
		}
		x[m-1] /= d[m-1]
		for i := m - 2; i >= 0; i-- {
			x[i] = x[i]/d[i] + b[i]/d[i]*x[i+1]
		}
		normalize(x)
	}
}
