//go:build !race

package spectral

// The Jacobi oracle for λ₂ runs dense O(n³) sweeps on graphs of up to
// 400 vertices: about 18 s on a 2-vCPU Xeon, and over five minutes under
// the race detector, which has nothing to find in this single-goroutine
// arithmetic. So race builds leave this file out.

import (
	"math"
	"testing"

	"faultexp/internal/xrand"
)

// kernelErrorCeiling is |λ̂₂ − λ₂| on scratchCorpus graph i (rng seed
// 100+i, λ₂ by Jacobi) for the Lanczos kernel of fx-kernels-v8 (two
// full Gram–Schmidt passes per step and a QL eigensolve of the
// tridiagonal), rounded up at the fourth digit. Graphs 4, 5, 18–20, 25
// and 26 stop at the 4√n step budget before converging; graph 20
// (n = 178) is the worst.
var kernelErrorCeiling = []float64{
	4.164e-16, 3.054e-16, 1.943e-16, 4.164e-17, 1.546e-06, 1.08e-08, 5.552e-17, 1.178e-13, 9.993e-16, 2.776e-15,
	4.044e-13, 6.357e-14, 2.776e-16, 1.388e-16, 1.388e-16, 3.609e-16, 1.111e-16, 0, 4.452e-08, 5.119e-08,
	1.081e-03, 5.552e-16, 3.331e-16, 8.327e-16, 2.412e-15, 1.196e-04, 5.419e-07, 1.166e-15, 2.221e-16, 7.772e-16,
}

// TestLambda2AgainstJacobi checks λ̂₂ against dense Jacobi on every
// scratchCorpus graph (all have n ≤ 450). A Ritz value of 2I − L
// bounds its top eigenvalue on the kernel's complement from below, so
// λ̂₂ ≥ λ₂ up to rounding; and λ̂₂ is no further from λ₂ than the
// fx-kernels-v8 kernel's estimate was (kernelErrorCeiling), up to 1e-12
// of rounding slack for the graphs both kernels solve to convergence.
func TestLambda2AgainstJacobi(t *testing.T) {
	corpus := scratchCorpus()
	if len(corpus) != len(kernelErrorCeiling) {
		t.Fatalf("scratchCorpus has %d graphs, the error table %d", len(corpus), len(kernelErrorCeiling))
	}
	var scr Scratch
	for i, g := range corpus {
		if g.N() > 450 {
			t.Fatalf("graph %d has n = %d, too large for the Jacobi oracle", i, g.N())
		}
		got := FiedlerScratch(g, 0, xrand.New(uint64(100+i)), &scr).Lambda2
		exact := ExactLambda2(g)
		if got < exact-1e-12 {
			t.Errorf("graph %d (n=%d): λ̂₂ = %v below Jacobi λ₂ = %v", i, g.N(), got, exact)
		}
		if e := math.Abs(got - exact); e > kernelErrorCeiling[i]+1e-12 {
			t.Errorf("graph %d (n=%d): |λ̂₂ − λ₂| = %.3g, the previous kernel's was %.3g", i, g.N(), e, kernelErrorCeiling[i])
		}
	}
}
