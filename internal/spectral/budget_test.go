package spectral

import (
	"math"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// TestLambda2BudgetMatchesExactSmall pins the budget path to the exact
// path: for n small enough that the automatic budget is n iterations,
// an explicit budget of n runs the identical Lanczos sequence, so the
// estimates agree bit for bit and the residual is (near) zero.
func TestLambda2BudgetMatchesExactSmall(t *testing.T) {
	for _, g := range []struct {
		g    *graph.Graph
		name string
	}{
		{gen.Torus(5, 5), "torus5x5"},
		{gen.Path(17), "path17"},
		{gen.Complete(9), "complete9"},
		{gen.Hypercube(4), "hypercube4"},
	} {
		exact := Lambda2(g.g, xrand.New(7))
		got := Lambda2BudgetScratch(g.g, g.g.N(), xrand.New(7), &Scratch{})
		if got.Lambda2 != exact {
			t.Errorf("%s: budget λ₂ = %v, exact = %v", g.name, got.Lambda2, exact)
		}
		if got.Residual > 1e-8 {
			t.Errorf("%s: converged run has residual %v", g.name, got.Residual)
		}
		if got.Iters < 1 {
			t.Errorf("%s: Iters = %d", g.name, got.Iters)
		}
	}
}

// TestLambda2BudgetResidualShrinks checks the error bar is honest: more
// iterations never leave a (much) larger residual, and a tiny budget
// reports a visibly nonzero one on a slow-mixing graph.
func TestLambda2BudgetResidualShrinks(t *testing.T) {
	g := gen.Torus(40, 40) // λ₂ small, slow convergence
	small := Lambda2BudgetScratch(g, 6, xrand.New(3), &Scratch{})
	large := Lambda2BudgetScratch(g, 120, xrand.New(3), &Scratch{})
	if small.Residual <= 0 {
		t.Errorf("6-iteration run on torus40x40 reports residual %v, want > 0", small.Residual)
	}
	if large.Residual > small.Residual {
		t.Errorf("residual grew with budget: %v (6 it) vs %v (120 it)", small.Residual, large.Residual)
	}
	if large.Iters > 120 || small.Iters > 6 {
		t.Errorf("iteration budgets not respected: %d, %d", small.Iters, large.Iters)
	}
	// The estimate must carry its own error bar: |λ̂₂ − λ₂| ≤ residual
	// + convergence slack of the reference.
	ref := Lambda2(g, xrand.New(11))
	if diff := math.Abs(large.Lambda2 - ref); diff > large.Residual+1e-6 {
		t.Errorf("λ̂₂ = %v vs reference %v: off by %v, residual claims %v", large.Lambda2, ref, diff, large.Residual)
	}
}

// TestLambda2BudgetScratchReuse runs differently-sized graphs through
// one scratch and compares each against a fresh scratch.
func TestLambda2BudgetScratchReuse(t *testing.T) {
	scr := &Scratch{}
	for _, g := range []*graph.Graph{gen.Torus(8, 8), gen.Path(5), gen.Complete(12)} {
		fresh := Lambda2BudgetScratch(g, 30, xrand.New(5), &Scratch{})
		reused := Lambda2BudgetScratch(g, 30, xrand.New(5), scr)
		if fresh.Lambda2 != reused.Lambda2 || fresh.Residual != reused.Residual {
			t.Errorf("%v: scratch reuse changed the result: %+v vs %+v", g, reused, fresh)
		}
	}
	if r := Lambda2BudgetScratch(gen.Path(1), 10, xrand.New(1), scr); r.Lambda2 != 0 || r.Residual != 0 {
		t.Errorf("singleton graph: %+v, want zeros", r)
	}
}
