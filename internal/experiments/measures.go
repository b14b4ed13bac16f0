package experiments

// The extension measures: the measurement kernels of the E1–E19
// experiment wrappers, extracted into sweepable trial-grained measures
// so the grid engine can run every part of the paper's story — not just
// the prune pipelines — over family × fault-model × rate cross products.
// The experiments remain the curated, checked reproductions; these
// measures are the same kernels as per-trial observation functions.
//
// Conventions shared with cells.go: per-cell baselines are measured in
// setup (splitting the cell RNG in a fixed order) and recorded as
// constants; each trial draws all randomness from its private trial RNG
// (seeded independently by the engine) and routes fault injection and
// component work through the worker's Workspace; observed base metrics
// are flat snake_case keys that expand to _mean/_std/_min/_max.

import (
	"fmt"
	"math"
	"strconv"

	"faultexp/internal/agree"
	"faultexp/internal/balance"
	"faultexp/internal/core"
	"faultexp/internal/cuts"
	"faultexp/internal/embed"
	"faultexp/internal/expansion"
	"faultexp/internal/faults"
	"faultexp/internal/graph"
	"faultexp/internal/route"
	"faultexp/internal/span"
	"faultexp/internal/spectral"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// Per-trial sampling budgets for the extension measures. Deliberately
// modest: a sweep multiplies them by families × rates × trials.
const (
	predictorSamples = 32     // span samples for predictor/conjecture
	countingR        = 3      // connected-subgraph size for counting
	agreementRounds  = 25     // iterated-majority rounds
	agreementPTrue   = 0.65   // honest initial majority
	balanceTol       = 0.05   // diffusion imbalance target
	balanceMaxRounds = 100000 // diffusion round budget
)

// init registers every measure in one table: the trial setup each
// measure has, the coupled implementation of the union-find-friendly
// ones (coupled.go), and whether the setup also implements the sampled
// tier (sampled.go; gamma's exact kernel is already O(n+m), so only its
// seed tier changes).
func init() {
	for name, m := range map[string]sweep.Measure{
		"gamma":          {Trials: setupGamma, Sampled: true},
		"prune":          {Trials: setupPrune},
		"prune2":         {Trials: setupPrune2},
		"span":           {Trials: setupSpan},
		"percolation":    {Trials: setupPercolation, Coupled: setupPercolationCoupled},
		"shatter":        {Trials: setupShatter, Coupled: setupShatterCoupled},
		"separator":      {Trials: setupSeparator},
		"dilation":       {Trials: setupDilation, Sampled: true},
		"predictor":      {Trials: setupPredictor},
		"counting":       {Trials: setupCounting},
		"loadbalance":    {Trials: setupLoadBalance},
		"multibutterfly": {Trials: setupMultibutterfly},
		"diameter":       {Trials: setupDiameter, Sampled: true},
		"agreement":      {Trials: setupAgreement},
		"routing":        {Trials: setupRouting},
		"upfal":          {Trials: setupUpfal},
		"residual":       {Trials: setupResidual, Coupled: setupResidualCoupled},
		"lambda2":        {Trials: setupLambda2, Sampled: true},
		"conjecture":     {Trials: setupConjecture},
	} {
		sweep.Register(name, m)
	}
}

// setupShatter measures how faults fragment the graph (the E3/E4 shape):
// component count, largest-component fraction, and the Herfindahl
// fragmentation index Σ(s_i/n)² (1 = intact, →0 = shattered). The trial
// path is allocation-free.
func setupShatter(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	n := float64(g.N())
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sizes, nf := c.FaultModel().Components(g, c.Rate, ws, rng)
		rec.Observe("faults", float64(nf))
		frag := 0.0
		for _, s := range sizes {
			f := float64(s) / n
			frag += f * f
		}
		rec.Observe("gamma", float64(largest(sizes))/n)
		rec.Observe("comps", float64(len(sizes)))
		rec.Observe("frag", frag)
		return nil
	}}, nil
}

// setupSeparator runs the Theorem 2.5 recursive separator attack with
// the cell rate as the fragment threshold ε: the attack faults
// boundaries until every fragment is below ε·n. The fault model is
// ignored (the attack is its own adversary); metrics report the budget
// normalized by Theorem 2.5's O(log(1/ε)/ε · α·n) scale with measured α.
func setupSeparator(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	if c.Rate <= 0 || c.Rate > 1 {
		return sweep.TrialRun{}, fmt.Errorf("separator measure needs rate in (0,1] (rate is the fragment threshold ε)")
	}
	alpha := measuredNodeAlpha(g, rng.Split())
	rec.Const("alpha", alpha)
	n := float64(g.N())
	scale := math.Log(1/c.Rate) / c.Rate * alpha * n
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		pat, fragSizes := faults.SeparatorAttack(g, c.Rate, rng)
		maxFrag := 0
		for _, s := range fragSizes {
			if s > maxFrag {
				maxFrag = s
			}
		}
		rec.Observe("faults", float64(pat.Count()))
		if scale > 0 {
			rec.Observe("normalized", float64(pat.Count())/scale)
		}
		rec.Observe("max_frag", float64(maxFrag)/n)
		rec.Observe("frags", float64(len(fragSizes)))
		return nil
	}}, nil
}

// setupDilation runs the §4 emulation pipeline (E9): faults → Prune2 →
// largest survivor → embed the ideal graph into it, tracking load,
// congestion, dilation, and the Leighton–Maggs–Rao slowdown.
func setupDilation(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if c.Precision.Sampled {
		return setupDilationSampled(g, c, ws, rng, rec)
	}
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	alphaE := measuredEdgeAlpha(g, rng.Split())
	log2n := math.Log2(float64(g.N()))
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		if sub.G.N() == 0 {
			return nil
		}
		res := core.Prune2(sub.G, alphaE, 0.1,
			core.Options{Finder: cuts.Options{RNG: rng}, Ws: ws})
		host := res.H.LargestComponentSubInto(ws)
		if host.G.N() == 0 {
			return nil
		}
		emb, err := embed.EmulateFaultyMesh(g, host)
		if err != nil {
			return nil
		}
		m := emb.Evaluate()
		rec.Observe("load", float64(m.Load))
		rec.Observe("congestion", float64(m.Congestion))
		rec.Observe("dilation", float64(m.Dilation))
		rec.Observe("slowdown", float64(m.Slowdown))
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		embedded := rec.Count("dilation")
		if embedded == 0 {
			return fmt.Errorf("no trial produced an embeddable survivor")
		}
		rec.Const("dil_per_log2n", rec.Stream("dilation").Max()/math.Max(log2n, 1))
		rec.Const("embedded_frac", float64(embedded)/float64(c.Trials))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupPredictor is the E10 kernel: the span (not the expansion)
// predicts random-fault tolerance. It reports both predictors of the
// fault-free graph plus the measured γ at this cell's rate, so sweeping
// rates traces the measured tolerance curve against the prediction
// 1/(2e·δ⁴·σ) of Theorem 3.4.
func setupPredictor(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	rec.Const("alpha", measuredNodeAlpha(g, rng.Split()))
	sigma := span.Sampled(g, predictorSamples, rng.Split()).Sigma
	pred := span.FaultToleranceFromSpan(g.MaxDegree(), sigma)
	rec.Const("sigma", sigma)
	rec.Const("pred_tolerance", pred)
	rec.Const("pred_margin", pred-c.Rate)
	n := float64(g.N())
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sizes, _ := c.FaultModel().Components(g, c.Rate, ws, rng)
		rec.Observe("gamma", float64(largest(sizes))/n)
		return nil
	}}, nil
}

// setupCounting is the Claim 3.2 kernel (E12): connected-subgraph counts
// against the Euler-tour bound n·δ^{2r}, evaluated on the faulted
// survivor's largest component, with r = 3.
func setupCounting(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	rec.Const("r", countingR)
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < countingR {
			return nil
		}
		count := float64(comp.G.CountConnectedSubgraphs(countingR, 0))
		delta := float64(comp.G.MaxDegree())
		bound := float64(comp.G.N()) * math.Pow(delta, 2*countingR)
		rec.Observe("count", count)
		if bound > 0 {
			rec.Observe("bound_frac", count/bound)
		}
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		counted := rec.Count("count")
		if counted == 0 {
			return fmt.Errorf("every survivor smaller than r=%d", countingR)
		}
		rec.Const("counted_frac", float64(counted)/float64(c.Trials))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupLoadBalance is the §1.3 diffusion kernel (E13): rounds to balance
// a point load on the faulted survivor versus the fault-free graph.
func setupLoadBalance(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() < 2 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small to balance")
	}
	ideal := balance.RoundsToBalance(g, balance.PointLoad(g.N(), 0, float64(g.N())), balanceTol, balanceMaxRounds)
	if ideal >= balanceMaxRounds || ideal == 0 {
		return sweep.TrialRun{}, fmt.Errorf("fault-free graph did not balance within %d rounds", balanceMaxRounds)
	}
	rec.Const("rounds_ideal", float64(ideal))
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		h := comp.G
		if h.N() < 2 {
			return nil
		}
		r := balance.RoundsToBalance(h, balance.PointLoad(h.N(), 0, float64(h.N())), balanceTol, balanceMaxRounds)
		if r >= balanceMaxRounds {
			return nil
		}
		rec.Observe("rounds", float64(r))
		rec.Observe("ratio", float64(r)/float64(ideal))
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		balanced := rec.Count("rounds")
		if balanced == 0 {
			return fmt.Errorf("no survivor balanced within %d rounds", balanceMaxRounds)
		}
		rec.Const("balanced_frac", float64(balanced)/float64(c.Trials))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupMultibutterfly is the Leighton–Maggs kernel (E14): the fraction
// of inputs that still reach at least half of the surviving outputs
// after faults. It requires the (unwrapped) butterfly family: the
// addressing below assumes distinct input/output levels 0 and d, which
// the wrapped butterfly merges away.
func setupMultibutterfly(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if c.Family.Family != "butterfly" {
		return sweep.TrialRun{}, fmt.Errorf("multibutterfly measure needs a butterfly-family cell, got %q", c.Family.Family)
	}
	d, err := strconv.Atoi(c.Family.Size)
	if err != nil || d < 1 {
		return sweep.TrialRun{}, fmt.Errorf("bad butterfly dimension %q", c.Family.Size)
	}
	rows := 1 << uint(d)
	rec.Const("rows", float64(rows))
	// Input row r is vertex r (level 0); output row r is vertex d·2^d+r.
	inputs, outputs := make([]int, rows), make([]int, rows)
	for r := range inputs {
		inputs[r], outputs[r] = r, d*rows+r
	}
	newID := make([]int32, g.N())
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, nf := c.FaultModel().Inject(g, c.Rate, ws, rng)
		rec.Observe("faults", float64(nf))
		rec.Observe("good_frac", float64(wellConnectedInputs(sub, inputs, outputs, newID, ws))/float64(rows))
		return nil
	}}, nil
}

// wellConnectedInputs counts the inputs that still reach at least half
// of the surviving outputs inside the faulted subgraph sub — the
// Leighton–Maggs quantity of E14 and the multibutterfly measure. inputs
// and outputs are vertices of the fault-free graph; newID is caller
// scratch with one entry per fault-free vertex (remapped to survivor
// ids), and each input's BFS runs on ws.
func wellConnectedInputs(sub *graph.Sub, inputs, outputs []int, newID []int32, ws *graph.Workspace) int {
	for i := range newID {
		newID[i] = -1
	}
	for id, ov := range sub.Orig {
		newID[ov] = int32(id)
	}
	aliveOutputs := 0
	for _, o := range outputs {
		if newID[o] >= 0 {
			aliveOutputs++
		}
	}
	if aliveOutputs == 0 {
		return 0
	}
	need := (aliveOutputs + 1) / 2
	good := 0
	for _, in := range inputs {
		if newID[in] < 0 {
			continue
		}
		dist := sub.G.BFSDistancesInto(ws, int(newID[in]))
		reached := 0
		for _, o := range outputs {
			if id := newID[o]; id >= 0 && dist[id] >= 0 {
				reached++
			}
		}
		if reached >= need {
			good++
		}
	}
	return good
}

// setupDiameter is the E16 kernel: the survivor's exact diameter against
// the ball-growth bound 2·⌈log_{1+α}(n/2)⌉+1 from its measured
// expansion — the lemma that turns certified expansion into the §4
// dilation claim.
func setupDiameter(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if c.Precision.Sampled {
		return setupDiameterSampled(g, c, ws, rng, rec)
	}
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < 2 {
			return nil
		}
		alpha := measuredNodeAlpha(comp.G, rng)
		if alpha <= 0 {
			return nil
		}
		diam := float64(expansion.ExactDiameter(comp.G))
		bound := float64(expansion.DiameterUpperBound(alpha, comp.G.N()))
		rec.Observe("diameter", diam)
		rec.Observe("bound", bound)
		if bound > 0 {
			rec.Observe("ratio", diam/bound)
		}
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		measured := rec.Count("diameter")
		if measured == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		rec.Const("measured_frac", float64(measured)/float64(c.Trials))
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupAgreement is the §1.3 almost-everywhere-agreement kernel (E17),
// with the fault pattern reinterpreted: faulty nodes stay in the network
// as Byzantine parties (rate = Byzantine fraction) and the metric is the
// fraction of honest nodes that end holding the honest initial majority.
func setupAgreement(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	// Validate the model once, up front, instead of on trial 1.
	if _, err := byzantinePattern(g, c.Model, 0, rng.Split()); err != nil {
		return sweep.TrialRun{}, err
	}
	rec.Const("rounds", agreementRounds)
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		byz, err := byzantinePattern(g, c.Model, c.Rate, rng)
		if err != nil {
			return err
		}
		inst := agree.NewInstance(g, byz.Nodes, agreementPTrue, rng)
		rec.Observe("agreement", inst.Run(agreementRounds))
		rec.Observe("byz", float64(byz.Count()))
		return nil
	}}, nil
}

// byzantinePattern draws a node fault pattern for models that produce
// node faults (Byzantine placement for the agreement measure).
func byzantinePattern(g *graph.Graph, model string, rate float64, rng *xrand.RNG) (faults.Pattern, error) {
	switch model {
	case sweep.ModelIIDNode:
		return faults.IIDNodes(g, rate, rng), nil
	case sweep.ModelAdversarial:
		f := int(math.Round(rate * float64(g.N())))
		return faults.BottleneckAdversary{}.Select(g, f, rng), nil
	}
	return faults.Pattern{}, fmt.Errorf("agreement measure needs a node fault model, got %q", model)
}

// setupRouting is the §1.3 routing kernel (E18): random-pairs
// shortest-path congestion on the faulted survivor versus the fault-free
// graph.
func setupRouting(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() < 2 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small to route")
	}
	pairs := 2 * g.N()
	ideal := route.RandomPairs(g, pairs, rng.Split())
	idealCPP := ideal.CongestionPerPair()
	rec.Const("congperpair_ideal", idealCPP)
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < 2 {
			return nil
		}
		r := route.RandomPairs(comp.G, pairs, rng)
		cpp := r.CongestionPerPair()
		rec.Observe("congperpair", cpp)
		if idealCPP > 0 {
			rec.Observe("ratio", cpp/idealCPP)
		}
		rec.Observe("avglen", r.AvgLen())
		rec.Observe("unreached", float64(r.Unreached))
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		if rec.Count("congperpair") == 0 {
			return fmt.Errorf("no survivor was routable")
		}
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupUpfal is the E11 kernel: Prune versus size-only (Upfal-style)
// pruning on the same faulted graph — survivor sizes and the residual
// expansion each certifies.
func setupUpfal(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	alpha := measuredNodeAlpha(g, rng.Split())
	rec.Const("alpha", alpha)
	n := float64(g.N())
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		if sub.G.N() == 0 {
			return nil
		}
		// Upfal first: it reads the workspace-backed sub but allocates
		// its own survivors, while Prune's culling rounds rebuild into
		// the same workspace and would invalidate sub.
		up := core.UpfalPrune(sub, func(o int32) int { return g.Degree(int(o)) }, 0.51)
		aUp, _ := core.MeasureResidual(up.H.G, rng)
		rec.Observe("upfal_frac", float64(up.SurvivorSize())/n)
		rec.Observe("alpha_upfal", aUp)
		pr := core.Prune(sub.G, alpha, 0.5, core.Options{Finder: cuts.Options{RNG: rng}, Ws: ws})
		aPr, _ := core.MeasureResidual(pr.H.G, rng)
		rec.Observe("prune_frac", float64(pr.SurvivorSize())/n)
		rec.Observe("alpha_prune", aPr)
		return nil
	}}, nil
}

// setupResidual measures how much of the fault-free expansion the
// largest surviving component retains — the quantity the paper's
// theorems are about, measured directly instead of via pruning.
func setupResidual(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() < 2 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small")
	}
	alpha0 := measuredNodeAlpha(g, rng.Split())
	alphaE0 := measuredEdgeAlpha(g, rng.Split())
	rec.Const("alpha_node_0", alpha0)
	rec.Const("alpha_edge_0", alphaE0)
	n := float64(g.N())
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < 2 {
			return nil
		}
		na, ea := core.MeasureResidual(comp.G, rng)
		rec.Observe("alpha_node", na)
		rec.Observe("alpha_edge", ea)
		rec.Observe("gamma", float64(comp.G.N())/n)
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		if rec.Count("gamma") == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		if alpha0 > 0 {
			rec.Const("retention_node", rec.Stream("alpha_node").Mean()/alpha0)
		}
		if alphaE0 > 0 {
			rec.Const("retention_edge", rec.Stream("alpha_edge").Mean()/alphaE0)
		}
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupLambda2 tracks the survivor's algebraic connectivity λ₂ (and its
// Cheeger bounds) under faults — the spectral view of expansion decay.
// Setup and every trial share one spectral.Scratch, so a warm trial
// allocates nothing.
func setupLambda2(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if c.Precision.Sampled {
		return setupLambda2Sampled(g, c, ws, rng, rec)
	}
	if g.N() < 3 {
		return sweep.TrialRun{}, fmt.Errorf("graph too small")
	}
	scr := &spectral.Scratch{}
	l0 := spectral.Lambda2Scratch(g, rng.Split(), scr)
	rec.Const("lambda2_0", l0)
	trial := func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sub, _ := c.FaultModel().Inject(g, c.Rate, ws, rng)
		comp := sub.LargestComponentSubInto(ws)
		if comp.G.N() < 3 {
			return nil
		}
		l2 := spectral.Lambda2Scratch(comp.G, rng, scr)
		lo, up := spectral.CheegerBounds(l2)
		rec.Observe("lambda2", l2)
		rec.Observe("cheeger_lower", lo)
		rec.Observe("cheeger_upper", up)
		return nil
	}
	finish := func(rec *sweep.Recorder) error {
		if rec.Count("lambda2") == 0 {
			return fmt.Errorf("no survivor was measurable")
		}
		if l0 > 0 {
			rec.Const("retention", rec.Stream("lambda2").Mean()/l0)
		}
		return nil
	}
	return sweep.TrialRun{Trial: trial, Finish: finish}, nil
}

// setupConjecture gathers evidence for the paper's open conjecture
// (E19): butterfly-like networks have span O(1), hence constant fault
// tolerance. It reports the sampled span normalized by log₂n (flat ⇒
// O(1) evidence), the implied Theorem 3.4 tolerance, and the measured γ
// at this rate — so a rate sweep shows whether the graph really
// tolerates the constant rate its span predicts.
func setupConjecture(g *graph.Graph, c sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) (sweep.TrialRun, error) {
	if g.N() == 0 {
		return sweep.TrialRun{}, fmt.Errorf("empty graph")
	}
	est := span.Sampled(g, predictorSamples, rng.Split())
	pred := span.FaultToleranceFromSpan(g.MaxDegree(), est.Sigma)
	n := float64(g.N())
	rec.Const("sigma", est.Sigma)
	rec.Const("sigma_per_log2n", est.Sigma/math.Max(math.Log2(n), 1))
	rec.Const("pred_tolerance", pred)
	if c.Rate > pred {
		rec.Const("above_pred", 1)
	} else {
		rec.Const("above_pred", 0)
	}
	return sweep.TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *sweep.Recorder) error {
		sizes, _ := c.FaultModel().Components(g, c.Rate, ws, rng)
		rec.Observe("gamma", float64(largest(sizes))/n)
		return nil
	}}, nil
}
