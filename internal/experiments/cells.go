package experiments

// Sweep cell adapters: the prune / prune2 / span / percolation pipelines
// repackaged as trial-grained sweep measures, so the declarative grid
// engine can run the paper's pipelines over family × fault-model × rate
// cross products. Each measure's entry in the measure table
// (measures.go) names a sweep.TrialSetup: setup runs once per cell
// (fault-free baselines, theorem constants — recorded as constants),
// and the returned TrialFunc measures ONE fault realization, drawing
// all randomness from the trial's private RNG (seeded independently per
// trial by the engine) and routing fault injection and component work
// through the worker's Workspace so the steady-state
// trial path allocates (near-)nothing. Every observed base metric gains
// deterministic _mean/_std/_min/_max companions in the Result stream.
// The extension measures extracted from the E1–E19 experiment kernels
// live in measures.go.

import (
	"fmt"

	"faultexp/internal/core"
	"faultexp/internal/cuts"
	"faultexp/internal/graph"
	"faultexp/internal/perc"
	"faultexp/internal/span"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// spanSamples is the compact-set sample budget the span measure spends
// per trial.
const spanSamples = 24

// setupGamma measures the largest-component fraction γ of the faulted
// graph — the paper's connectivity baseline (what survives before any
// pruning). The trial path is the zero-allocation reference: draw the
// faults and size the components in ws without building the survivor,
// fold two scalars.
func setupGamma(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	n := float64(g.N())
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sizes, nf := c.FaultModel().Components(g, c.Rate, ws, rng)
		rec.Observe("gamma", float64(largest(sizes))/n)
		rec.Observe("faults", float64(nf))
		return nil
	}}, nil
}

// largest returns the largest of the component sizes, 0 when every
// vertex failed.
func largest(sizes []int) int {
	best := 0
	for _, s := range sizes {
		best = max(best, s)
	}
	return best
}

// setupPrune runs the Figure 1 pipeline (faults → Prune) with measured
// fault-free node expansion and the paper's k = 2 (ε = 1/2).
func setupPrune(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	return setupPruneCell(g, c, rng, rec, false)
}

// setupPrune2 runs the Figure 2 pipeline (faults → Prune2) with measured
// fault-free edge expansion and Theorem 3.4's maximal ε = 1/(2δ).
func setupPrune2(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	return setupPruneCell(g, c, rng, rec, true)
}

func setupPruneCell(g *graph.Graph, c sweep.Cell, rng *xrand.RNG, rec *sweep.Recorder, edgeMode bool) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	var alpha, eps float64
	if edgeMode {
		alpha = measuredEdgeAlpha(g, rng.Split())
		eps = core.Theorem34MaxEps(g.MaxDegree())
	} else {
		alpha = measuredNodeAlpha(g, rng.Split())
		eps = 0.5
	}
	rec.Const("alpha", alpha)
	rec.Const("eps", eps)
	rec.Const("threshold", alpha*eps)
	n := float64(g.N())
	// The pruning scratch lives for the whole cell: after the first trial
	// warms it, the prune/prune2 trial path allocates nothing. Only the
	// aggregate cull counters are consumed, so Culled is discarded.
	scratch := &core.Scratch{}
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, nf := c.FaultModel().Inject(g, c.Rate, ws, rng)
		rec.Observe("faults", float64(nf))
		frac := 0.0
		if sub.G.N() > 0 {
			opt := core.Options{Finder: cuts.Options{RNG: rng}, Ws: ws, Scratch: scratch, DiscardCulled: true}
			var res *core.Result
			if edgeMode {
				res = core.Prune2(sub.G, alpha, eps, opt)
			} else {
				res = core.Prune(sub.G, alpha, eps, opt)
			}
			frac = float64(res.SurvivorSize()) / n
			rec.Observe("culled", float64(res.CulledTotal))
			if q := res.CertifiedQuotient; isFinite(q) {
				rec.Observe("cert", q)
			}
		}
		rec.Observe("survivor_frac", frac)
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		rec.Const("cert_trials", float64(rec.Count("cert")))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupSpan injects faults, restricts to the largest surviving
// component, and estimates its span σ by compact-set sampling — how the
// §1.4 parameter itself degrades as faults accumulate.
func setupSpan(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	n := float64(g.N())
	// Per-cell span workspace: after the first trial warms it, the
	// sampler's Steiner tables, boundary masks and BFS queues are reused.
	sws := span.NewWorkspace()
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		rec.Observe("gamma", float64(comp.G.N())/n)
		rec.Observe("sigma", span.SampledWs(comp.G, spanSamples, rng, sws).Sigma)
		return nil
	}}, nil
}

// setupPercolation maps the cell onto a Newman–Ziff-style percolation
// measurement: elements survive independently with probability 1−rate
// (sites for iid-node, bonds for iid-edge) and each trial contributes
// one realization of γ.
func setupPercolation(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	var mode perc.Mode
	switch c.Model {
	case sweep.ModelIIDNode:
		mode = perc.Site
	case sweep.ModelIIDEdge:
		mode = perc.Bond
	default:
		return sweep.TrialRun{}, fmt.Errorf("percolation measure needs an iid fault model, got %q", c.Model)
	}
	p := 1 - c.Rate
	rec.Const("p_survive", p)
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		rec.Observe("gamma", perc.GammaAtPWs(g, mode, p, 1, rng, ws))
		return nil
	}}, nil
}
