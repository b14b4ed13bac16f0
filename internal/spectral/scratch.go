package spectral

// Scratch-based Fiedler/Lanczos: FiedlerScratch, Lambda2Scratch and the
// Lanczos iteration behind them keep every intermediate — the Laplacian
// scale vector, the Krylov basis (a flat arena), the tridiagonal and the
// Ritz vector — in caller-owned buffers, and Fiedler and Lambda2 run the
// same code on a throwaway Scratch. The pruning hot path calls
// Fiedler once per culling round, and the basis copies dominated its
// allocation profile.

import (
	"math"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Scratch holds the reusable state of a Fiedler computation. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls. The Vector of a FiedlerScratch result aliases scratch memory and
// is valid only until the next call on the same scratch. Not safe for
// concurrent use.
type Scratch struct {
	lap     Laplacian
	invSqrt []float64
	kernel  []float64

	w, x       []float64
	basisArena []float64
	basis      [][]float64
	alphas     []float64
	betas      []float64
	ritz       []float64 // the tridiagonal's top eigenvector

	resY, resLy []float64 // Lambda2BudgetScratch residual buffers
}

// growF resizes s to length n (contents unspecified), reallocating only
// when capacity is exceeded.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// FiedlerScratch is Fiedler on caller-owned scratch. Values are
// bit-identical to Fiedler's for the same rng state; the returned Vector
// aliases scr and is invalidated by the next call on the same scratch.
func FiedlerScratch(g *graph.Graph, maxIter int, rng *xrand.RNG, scr *Scratch) FiedlerResult {
	n := g.N()
	if n == 0 {
		return FiedlerResult{}
	}
	if n == 1 {
		scr.x = growF(scr.x, 1)
		scr.x[0] = 0
		return FiedlerResult{Lambda2: 0, Vector: scr.x}
	}
	iters, top, sigma := lanczosScratch(g, maxIter, rng, scr)
	// The Ritz vector: the top eigenvector of the tridiagonal, combined
	// over the Krylov basis. The inverse iteration keeps its pivots in w,
	// which the iteration no longer needs (m ≤ n).
	m := len(scr.alphas)
	s := growF(scr.ritz, m)
	scr.ritz = s
	tridiagTopVector(scr.alphas, scr.betas, sigma, s, scr.w[:m])
	x := growF(scr.x, n)
	scr.x = x
	for i := range x {
		x[i] = 0
	}
	for i, b := range scr.basis {
		axpy(s[i], b, x)
	}
	normalize(x)
	for i := range x {
		x[i] *= scr.invSqrt[i]
	}
	return FiedlerResult{Lambda2: math.Max(2-top, 0), Vector: x, Iters: iters}
}

// Lambda2Scratch is the algebraic connectivity alone, on caller-owned
// scratch: the same Lanczos run as FiedlerScratch with maxIter 0, so the
// value is bit-identical to FiedlerScratch(g, 0, rng, scr).Lambda2 and
// rng advances the same way, but it forms no Ritz vector, and a warm
// scratch makes it allocation-free.
func Lambda2Scratch(g *graph.Graph, rng *xrand.RNG, scr *Scratch) float64 {
	if g.N() <= 1 {
		return 0
	}
	_, top, _ := lanczosScratch(g, 0, rng, scr)
	return math.Max(2-top, 0)
}

// lanczosScratch runs at most maxIter Lanczos steps (maxIter ≤ 0: the
// automatic budget) on the shifted normalized Laplacian of g
// (Laplacian.ApplyShifted), n = g.N() ≥ 2, from a random start vector
// orthogonal to the kernel vector D^{1/2}·1. It returns the number of
// steps taken, the largest eigenvalue top of the final tridiagonal (the
// Ritz value) and tridiagTop's bracket end sigma above it. It leaves in
// scr the Krylov basis (a flat arena) and the tridiagonal's diagonal
// (alphas) and off-diagonal (betas), and reuses every buffer from scr.
//
// Every 4 steps from the fifth on, it checks convergence: it stops once
// the Ritz value moves by less than 1e-12 relative. Each check is one
// bisection on the tridiagonal so far, bracketed by the previous check's
// Ritz value and its rise (tridiagTop).
func lanczosScratch(g *graph.Graph, maxIter int, rng *xrand.RNG, scr *Scratch) (iters int, top, sigma float64) {
	n := g.N()
	inv := growF(scr.invSqrt, n)
	scr.invSqrt = inv
	for v := 0; v < n; v++ {
		inv[v] = 0
		if d := g.Degree(v); d > 0 {
			inv[v] = 1 / math.Sqrt(float64(d))
		}
	}
	scr.lap = Laplacian{g: g, invSqrt: inv}
	kernel := growF(scr.kernel, n)
	scr.kernel = kernel
	for i := 0; i < n; i++ {
		kernel[i] = 0
		if inv[i] > 0 {
			kernel[i] = 1 / inv[i] // sqrt(deg)
		}
	}
	normalize(kernel)
	if maxIter <= 0 {
		maxIter = 4 * intSqrt(n)
		if maxIter < 50 {
			maxIter = 50
		}
	}
	if maxIter > n {
		maxIter = n
	}

	if cap(scr.basisArena) < maxIter*n {
		scr.basisArena = make([]float64, maxIter*n)
	}
	arena := scr.basisArena[:maxIter*n]
	// The start vector goes straight into the basis's first slot, and
	// each step writes the next vector into the slot after its own.
	v := arena[:n]
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	nrm := math.Sqrt(reorthogonalize(v, dot(v, v), kernel, nil))
	for i := range v {
		v[i] /= nrm
	}

	if cap(scr.basis) < maxIter {
		scr.basis = make([][]float64, 0, maxIter)
	}
	basis := scr.basis[:0]
	if cap(scr.alphas) < maxIter {
		scr.alphas = make([]float64, 0, maxIter)
		scr.betas = make([]float64, 0, maxIter)
	}
	alphas, betas := scr.alphas[:0], scr.betas[:0]
	w := growF(scr.w, n)
	scr.w = w

	prevRitz, rise := math.Inf(-1), 0.0
	solved := false // top and sigma belong to the current tridiagonal
	for k := 0; k < maxIter; k++ {
		iters = k + 1
		v := arena[k*n : (k+1)*n : (k+1)*n]
		basis = append(basis, v)
		scr.lap.ApplyShifted(w, v)
		alpha := dot(w, v)
		alphas = append(alphas, alpha)
		// The recurrence's last sweep also sums ‖w‖², which tells
		// reorthogonalize how much its pass cancelled.
		var ww float64
		if k > 0 {
			axpy(-alpha, v, w)
			ww = axpyDot(-betas[k-1], basis[k-1], w, w)
		} else {
			ww = axpyDot(-alpha, v, w, w)
		}
		beta := math.Sqrt(reorthogonalize(w, ww, kernel, basis))
		solved = false
		if k >= 4 && k%4 == 0 {
			top, sigma = tridiagTop(alphas, betas, prevRitz, rise)
			solved = true
			if math.Abs(top-prevRitz) < 1e-12*(1+math.Abs(top)) {
				break
			}
			prevRitz, rise = top, top-prevRitz
		}
		if beta < 1e-13 {
			break
		}
		betas = append(betas, beta)
		if k+1 < maxIter {
			next := arena[(k+1)*n : (k+2)*n]
			for i := range next {
				next[i] = w[i] / beta
			}
		}
	}
	if !solved {
		top, sigma = tridiagTop(alphas, betas, prevRitz, rise)
	}
	scr.basis, scr.alphas, scr.betas = basis, alphas, betas
	return iters, top, sigma
}
