package faults

// This file defines the Model interface: the uniform fault-injection
// abstraction the sweep engine's trial loop drives. A Model draws one
// fault pattern per call and either applies it — Inject builds the
// faulted subgraph's CSR — or only counts what it leaves — Components
// returns the faulted graph's component sizes, which is all the
// component-only measures (gamma, shatter, predictor, conjecture) read.
// For the iid models Components builds no CSR: iid-node labels g under
// its keep mask with graph's one component labeller (ComponentsInto),
// iid-edge makes graph's one edge-fault pass
// (FilteredComponentSizesInto). Every intermediate (keep masks, labels,
// dropped-edge marks, union–find, the surviving CSR) lives in a
// per-worker graph.Workspace, so the steady-state trial path allocates
// nothing. The three built-in models
// mirror the paper's fault regimes: iid node faults and iid edge faults
// (§3) and the adversarial bottleneck attack (§2).

import (
	"fmt"
	"math"
	"strings"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Canonical fault-model names, shared by the sweep grid spec and the
// CLI.
const (
	ModelIIDNode     = "iid-node"
	ModelIIDEdge     = "iid-edge"
	ModelAdversarial = "adversarial"
)

// Model generates one fault pattern per call, using ws-owned buffers
// for everything the pattern touches. Inject and Components make the
// same draws in the same order, so from one rng state they describe the
// same faulted graph; that draw order is part of each model's contract —
// it is what makes a cell's output a pure function of (seed, cell key).
// What either returns lives in workspace memory (see the Workspace
// ownership rules): any later workspace call may clobber it, so callers
// that need it past further workspace work must copy.
type Model interface {
	// Name identifies the model in grid specs and output records.
	Name() string
	// Inject draws one fault pattern at the given rate, applies it to g,
	// and returns the surviving subgraph (with provenance) plus the
	// number of failed elements (nodes or edges).
	Inject(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) (*graph.Sub, int)
	// Components draws the pattern Inject would and returns the faulted
	// graph's component sizes, in ascending order of each component's
	// smallest vertex (the order ComponentsInto gives on Inject's
	// survivor), plus the number of failed elements. The iid models
	// count on g's own CSR without building the survivor.
	Components(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) (sizes []int, failed int)
}

// IIDNodeModel fails each node independently with probability rate,
// drawing one Bernoulli variate per vertex in ascending order — the same
// sequence as IIDNodes.
type IIDNodeModel struct{}

// Name implements Model.
func (IIDNodeModel) Name() string { return ModelIIDNode }

// Inject implements Model.
func (m IIDNodeModel) Inject(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) (*graph.Sub, int) {
	keep, failed := m.draw(g, rate, ws, rng)
	return g.InduceInto(ws, keep), failed
}

// Components implements Model: it labels g under the keep mask.
func (m IIDNodeModel) Components(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) ([]int, int) {
	keep, failed := m.draw(g, rate, ws, rng)
	_, sizes := g.ComponentsInto(ws, keep)
	return sizes, failed
}

// draw fills ws's keep mask with the survivors and returns it with the
// number of failed nodes.
func (IIDNodeModel) draw(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) ([]bool, int) {
	keep := ws.Mask(g.N())
	failed := 0
	for v := range keep {
		if rng.Bool(rate) {
			keep[v] = false
			failed++
		} else {
			keep[v] = true
		}
	}
	return keep, failed
}

// IIDEdgeModel fails each edge independently with probability rate,
// drawing one Bernoulli variate per undirected edge in ForEachEdge
// order. The vertex set is unchanged (identity provenance).
type IIDEdgeModel struct{}

// Name implements Model.
func (IIDEdgeModel) Name() string { return ModelIIDEdge }

// Inject implements Model.
func (IIDEdgeModel) Inject(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) (*graph.Sub, int) {
	return g.FilterEdgesInto(ws, func(u, v int) bool { return rng.Bool(rate) })
}

// Components implements Model: it unions the kept edges in one pass.
func (IIDEdgeModel) Components(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) ([]int, int) {
	return g.FilteredComponentSizesInto(ws, func(u, v int) bool { return rng.Bool(rate) })
}

// AdversarialModel gives an adversary a budget of round(rate·n) node
// faults. Pattern selection runs the adversary's own (allocating) search;
// only the application of the pattern uses workspace memory.
type AdversarialModel struct {
	Adv Adversary
}

// Name implements Model.
func (AdversarialModel) Name() string { return ModelAdversarial }

// Inject implements Model.
func (m AdversarialModel) Inject(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) (*graph.Sub, int) {
	f := int(math.Round(rate * float64(g.N())))
	pat := m.Adv.Select(g, f, rng)
	return g.RemoveVerticesInto(ws, pat.Nodes), pat.Count()
}

// Components implements Model. The adversary's search dwarfs building
// the survivor, so it builds it and labels it.
func (m AdversarialModel) Components(g *graph.Graph, rate float64, ws *graph.Workspace, rng *xrand.RNG) ([]int, int) {
	sub, failed := m.Inject(g, rate, ws, rng)
	_, sizes := sub.G.ComponentsInto(ws, nil)
	return sizes, failed
}

// Models returns the built-in fault models in canonical order (the
// adversarial entry uses the bottleneck adversary, the attack that makes
// Theorem 2.1 tight).
func Models() []Model {
	return []Model{
		IIDNodeModel{},
		IIDEdgeModel{},
		AdversarialModel{Adv: BottleneckAdversary{}},
	}
}

// ModelByName resolves a canonical model name. It allocates nothing
// (the built-in models are zero-size), so the sweep trial loop can
// resolve per call without paying for it.
func ModelByName(name string) (Model, bool) {
	switch name {
	case ModelIIDNode:
		return IIDNodeModel{}, true
	case ModelIIDEdge:
		return IIDEdgeModel{}, true
	case ModelAdversarial:
		return AdversarialModel{Adv: BottleneckAdversary{}}, true
	}
	return nil, false
}

// ModelNames lists the built-in fault-model names in canonical order.
func ModelNames() []string {
	ms := Models()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

// ValidateModels checks a grid's fault-model axis: every name must
// resolve to a registered model and appear only once. Duplicates are
// rejected because a repeated model would expand to duplicate cells
// with colliding seeds — two identical output records masquerading as
// independent results.
func ValidateModels(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("faults: no fault models")
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if _, ok := ModelByName(name); !ok {
			return fmt.Errorf("faults: unknown fault model %q (have %s)", name, strings.Join(ModelNames(), ", "))
		}
		if seen[name] {
			return fmt.Errorf("faults: duplicate fault model %q", name)
		}
		seen[name] = true
	}
	return nil
}
