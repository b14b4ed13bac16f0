package spectral

// Scratch-based Fiedler/Lanczos: FiedlerScratch, Lambda2Scratch and the
// Lanczos iteration behind them keep every intermediate — the Laplacian
// scale vector, the Krylov basis (a flat arena), the tridiagonal solves
// and the Ritz vector — in caller-owned buffers, and Fiedler and Lambda2
// run the same code on a throwaway Scratch. The pruning hot path calls
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
	deflate [][]float64

	v, w, x    []float64
	basisArena []float64
	basis      [][]float64
	alphas     []float64
	betas      []float64
	dChk, eChk []float64 // eigenvalue-only solves: convergence checks, Lambda2Scratch
	dFin, eFin []float64 // final tridiagonal solve
	zArena     []float64
	zRows      [][]float64
	ritz       []float64

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
	iters := lanczosScratch(g, maxIter, rng, scr)
	// The Ritz vector: the top eigenvector of the tridiagonal, combined
	// over the Krylov basis.
	m := len(scr.alphas)
	ev, s := tridiagLargestScratch(scr.alphas, scr.betas[:m-1], scr)
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
	return FiedlerResult{Lambda2: math.Max(2-ev, 0), Vector: x, Iters: iters}
}

// Lambda2Scratch is the algebraic connectivity alone, on caller-owned
// scratch: the same Lanczos run as FiedlerScratch with maxIter 0, so the
// value is bit-identical to FiedlerScratch(g, 0, rng, scr).Lambda2 and
// rng advances the same way, but the final solve finds only the largest
// eigenvalue of the tridiagonal — no rotation matrix, no Ritz vector —
// and a warm scratch makes it allocation-free.
func Lambda2Scratch(g *graph.Graph, rng *xrand.RNG, scr *Scratch) float64 {
	if g.N() <= 1 {
		return 0
	}
	lanczosScratch(g, 0, rng, scr)
	m := len(scr.alphas)
	ev := tridiagLargestValue(scr.alphas, scr.betas[:m-1], &scr.dChk, &scr.eChk)
	return math.Max(2-ev, 0)
}

// lanczosScratch runs at most maxIter Lanczos steps (maxIter ≤ 0: the
// automatic budget) on the shifted normalized Laplacian of g
// (Laplacian.ApplyShifted), n = g.N() ≥ 2, from a random start vector
// orthogonal to the kernel vector D^{1/2}·1, and returns the number of
// steps taken. It leaves in scr the Krylov basis (a flat arena) and the
// tridiagonal's diagonal (alphas) and off-diagonal (betas), and reuses
// every buffer from scr.
func lanczosScratch(g *graph.Graph, maxIter int, rng *xrand.RNG, scr *Scratch) int {
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
	scr.deflate = append(scr.deflate[:0], kernel)
	deflate := scr.deflate

	v := growF(scr.v, n)
	scr.v = v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	orthogonalize(v, deflate)
	normalize(v)

	if cap(scr.basisArena) < maxIter*n {
		scr.basisArena = make([]float64, maxIter*n)
	}
	arena := scr.basisArena[:maxIter*n]
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

	prevRitz := math.Inf(-1)
	iters := 0
	for k := 0; k < maxIter; k++ {
		iters = k + 1
		bk := arena[k*n : (k+1)*n : (k+1)*n]
		copy(bk, v)
		basis = append(basis, bk)
		scr.lap.ApplyShifted(w, v)
		alpha := dot(w, v)
		alphas = append(alphas, alpha)
		axpy(-alpha, v, w)
		if k > 0 {
			axpy(-betas[k-1], basis[k-1], w)
		}
		orthogonalize(w, basis)
		orthogonalize(w, deflate)
		beta := norm(w)
		if k >= 4 && k%4 == 0 {
			ritz := tridiagLargestValue(alphas, betas, &scr.dChk, &scr.eChk)
			if math.Abs(ritz-prevRitz) < 1e-12*(1+math.Abs(ritz)) {
				break
			}
			prevRitz = ritz
		}
		if beta < 1e-13 {
			break
		}
		betas = append(betas, beta)
		for i := range v {
			v[i] = w[i] / beta
		}
	}
	scr.basis, scr.alphas, scr.betas = basis, alphas, betas
	return iters
}

// tridiagLargestScratch returns the largest eigenvalue of the symmetric
// tridiagonal matrix (diag, off) and its eigenvector. The rotation
// matrix lives in a flat m×m arena from scr, one eigenvector per row
// (see tql2), so the eigenvector is a copy of one row.
func tridiagLargestScratch(diag, off []float64, scr *Scratch) (float64, []float64) {
	m := len(diag)
	if m == 0 {
		return 0, nil
	}
	d := growF(scr.dFin, m)
	scr.dFin = d
	copy(d, diag)
	e := growF(scr.eFin, m)
	scr.eFin = e
	for i := range e {
		e[i] = 0
	}
	copy(e, off)
	if cap(scr.zArena) < m*m {
		scr.zArena = make([]float64, m*m)
	}
	zArena := scr.zArena[:m*m]
	for i := range zArena {
		zArena[i] = 0
	}
	if cap(scr.zRows) < m {
		scr.zRows = make([][]float64, m)
	}
	z := scr.zRows[:m]
	for i := 0; i < m; i++ {
		z[i] = zArena[i*m : (i+1)*m : (i+1)*m]
		z[i][i] = 1
	}
	tql2(d, e, z)
	best := 0
	for i := 1; i < m; i++ {
		if d[i] > d[best] {
			best = i
		}
	}
	vec := growF(scr.ritz, m)
	scr.ritz = vec
	copy(vec, z[best])
	return d[best], vec
}
