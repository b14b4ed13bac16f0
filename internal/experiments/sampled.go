package experiments

// Sampled-precision kernels: the "precision": "sampled:k" tier of the
// sweep spec. Each kernel replaces an exact computation that is
// super-linear in the graph (all-pairs BFS diameter, full-convergence
// Lanczos, full embedding pipelines) with a k-sample estimator that
// runs in O(k·(n+m)) per trial and reports its own error bars through
// the Recorder's _std companions plus explicit residual/bound metrics.
// Dispatch happens inside the exact measures' setup functions: the
// measure names are shared between tiers, Cell.Precision selects the
// kernel, and a measure's Sampled flag in the measure table
// (measures.go) declares that it has one. Every sampled draw comes
// from the trial RNG in a fixed order, so sampled cells are as
// deterministic (byte-identical across -workers, resume, and shard) as
// exact ones.

import (
	"fmt"
	"math"

	"faultexp/internal/graph"
	"faultexp/internal/spectral"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// lanczosItersPerSample converts the sample budget k of "sampled:k"
// into a Lanczos iteration budget: each sample unit buys this many
// iterations. One knob drives every sampled kernel, and the linear
// scaling keeps "double k" meaning "double the work" across measures.
const lanczosItersPerSample = 8

// setupDiameterSampled is the sampled tier of the diameter measure:
// k iterated eccentricity sweeps over the faulted survivor's largest
// component using the bitset-frontier BFS. The first source is drawn
// from the trial RNG; each following sweep restarts from the previous
// sweep's (deterministic) farthest vertex — the classic double-sweep
// heuristic iterated k times. The maximum eccentricity seen is a true
// diameter lower bound (diameter_lb); the per-sweep eccentricities
// stream through "ecc", so ecc_std is the spread of the estimator.
func setupDiameterSampled(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	k := c.Precision.K
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		cn := comp.G.N()
		if cn < 2 {
			return nil
		}
		src := rng.Intn(cn)
		best := 0
		for i := 0; i < k; i++ {
			ecc, far := comp.G.EccentricityFrontierInto(ws, src)
			rec.Observe("ecc", float64(ecc))
			if ecc > best {
				best = ecc
			}
			src = far
		}
		rec.Observe("diameter_lb", float64(best))
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		measured := rec.Count("diameter_lb")
		if measured == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		rec.Const("measured_frac", float64(measured)/float64(c.Trials))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupLambda2Sampled is the sampled tier of the lambda2 measure:
// budget-limited Lanczos (k·lanczosItersPerSample iterations) on the
// survivor's largest component, reporting the Ritz estimate together
// with its residual ‖L·y − λ̂₂·y‖ — a rigorous error bar (the true
// spectrum has a point within the residual of the estimate). The
// fault-free baseline runs under the same budget, so "retention" is a
// like-for-like ratio.
func setupLambda2Sampled(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() < 3 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small")
	}
	iters := c.Precision.K * lanczosItersPerSample
	scr := &spectral.Scratch{}
	base := spectral.Lambda2BudgetScratch(g, iters, rng.Split(), scr)
	rec.Const("lambda2_0", base.Lambda2)
	rec.Const("residual_0", base.Residual)
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < 3 {
			return nil
		}
		est := spectral.Lambda2BudgetScratch(comp.G, iters, rng, scr)
		lo, up := spectral.CheegerBounds(est.Lambda2)
		rec.Observe("lambda2", est.Lambda2)
		rec.Observe("residual", est.Residual)
		rec.Observe("iters", float64(est.Iters))
		rec.Observe("cheeger_lower", lo)
		rec.Observe("cheeger_upper", up)
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		if rec.Count("lambda2") == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		if base.Lambda2 > 0 {
			rec.Const("retention", rec.Stream("lambda2").Mean()/base.Lambda2)
		}
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupDilationSampled is the sampled tier of the dilation measure:
// instead of the full §4 embedding pipeline, it draws k random vertex
// pairs inside the faulted survivor's largest component and measures
// the per-pair stretch — surviving-graph distance over fault-free
// distance — which is exactly the dilation of the identity embedding on
// the sampled pairs. stretch_max is the per-trial dilation estimate
// (a lower bound on the true dilation), stretch's companions carry the
// error bars.
func setupDilationSampled(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() < 2 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small")
	}
	k := c.Precision.K
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		cn := comp.G.N()
		if cn < 2 {
			return nil
		}
		maxStretch := 0.0
		sampled := 0
		for i := 0; i < k; i++ {
			si := rng.Intn(cn)
			ti := rng.Intn(cn)
			for ti == si {
				ti = rng.Intn(cn)
			}
			// Read the survivor distance before the second BFS reuses the
			// workspace's distance buffer.
			dH := float64(comp.G.BFSDistancesInto(ws, si)[ti])
			dG := float64(g.BFSDistancesInto(ws, int(comp.Orig[si]))[comp.Orig[ti]])
			if dG <= 0 || dH < 0 {
				continue
			}
			stretch := dH / dG
			rec.Observe("stretch", stretch)
			if stretch > maxStretch {
				maxStretch = stretch
			}
			sampled++
		}
		if sampled > 0 {
			rec.Observe("stretch_max", maxStretch)
			rec.Observe("pairs", float64(sampled))
		}
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		measured := rec.Count("stretch_max")
		if measured == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		rec.Const("measured_frac", float64(measured)/float64(c.Trials))
		rec.Const("dil_per_log2n", rec.Stream("stretch_max").Max()/math.Max(math.Log2(float64(g.N())), 1))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}
