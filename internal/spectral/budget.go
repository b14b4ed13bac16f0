package spectral

// Budgeted Lanczos for the sampled-precision tier. Full-convergence
// Fiedler computations are what cap exact sweeps at n≈10⁵: the
// automatic budget grows as 4√n and each iteration re-orthogonalizes
// against the whole Krylov basis. A sampled-precision cell instead
// fixes the iteration budget explicitly (so both time AND the basis
// arena are bounded by iters·n) and reports how converged the estimate
// is: the residual ‖L·y − λ̂₂·y‖ of the returned Ritz pair, which is a
// rigorous error bar — λ₂ lies within the residual of some true
// eigenvalue of L.

import (
	"math"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// BudgetResult is a budget-limited λ₂ estimate with its error bar.
type BudgetResult struct {
	// Lambda2 is the Ritz estimate of the algebraic connectivity.
	Lambda2 float64
	// Iters is the number of Lanczos iterations actually performed
	// (early convergence can stop before the budget).
	Iters int
	// Residual is ‖L·y − λ̂₂·y‖₂ for the unit Ritz vector y: the
	// backward error of the estimate. Zero means converged to machine
	// precision; the true spectrum of L has a point within Residual of
	// Lambda2.
	Residual float64
}

// Lambda2BudgetScratch estimates λ₂ with an explicit Lanczos iteration
// budget on caller-owned scratch. iters ≤ 0 falls back to the automatic
// (full-convergence) budget; the estimate then matches Lambda2 exactly
// for the same rng state. For equal iteration budgets and rng state it
// performs the identical iteration sequence as FiedlerScratch, so its
// Lambda2 agrees bit for bit; it additionally computes the residual
// error bar from the Ritz pair.
func Lambda2BudgetScratch(g *graph.Graph, iters int, rng *xrand.RNG, scr *Scratch) BudgetResult {
	n := g.N()
	if n <= 1 {
		return BudgetResult{}
	}
	res := FiedlerScratch(g, iters, rng, scr)
	// FiedlerScratch hands back the vertex-coordinate (D^{-1/2}-scaled)
	// vector; undo the scaling to recover the unit eigenvector y of the
	// symmetric normalized Laplacian, which is what the residual is
	// meaningful for. Isolated vertices (inv = 0) carry no component.
	y := growF(scr.resY, n)
	scr.resY = y
	for i := 0; i < n; i++ {
		y[i] = 0
		if scr.invSqrt[i] > 0 {
			y[i] = res.Vector[i] / scr.invSqrt[i]
		}
	}
	nrm := norm(y)
	if nrm == 0 {
		return BudgetResult{Lambda2: res.Lambda2, Iters: res.Iters, Residual: math.Inf(1)}
	}
	for i := range y {
		y[i] /= nrm
	}
	ly := growF(scr.resLy, n)
	scr.resLy = ly
	scr.lap.Apply(ly, y)
	axpy(-res.Lambda2, y, ly)
	return BudgetResult{Lambda2: res.Lambda2, Iters: res.Iters, Residual: norm(ly)}
}
