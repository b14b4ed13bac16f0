package experiments

// Coupled-sampling implementations for the union-find-friendly measures
// (the Coupled entries of the measure table in measures.go). Each trial
// draws ONE uniform per element from the group's coupling stream; an
// element survives at rate r iff its draw ≥ r — marginally the iid
// fault law with failure probability r, but monotone across the rate
// axis. The rates are walked from highest to lowest, and one counting
// pass files every element into the band of the first rate its draw
// clears, so a union–find structure activates each element exactly
// once for the whole axis: percolation and shatter harvest every rate
// in one O((n+m)·α(n)) incremental pass per trial, and residual shares
// one fault realization (and one set of fault-free baselines) across
// the axis instead of recomputing both per rate cell.

import (
	"fmt"
	"slices"
	"sort"

	"faultexp/internal/core"
	"faultexp/internal/cuts"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/ufind"
	"faultexp/internal/xrand"
)

// coupledSweep is the shared skeleton of one coupled trial: the rate
// walk order (fixed per group), the per-trial element draws and their
// rate bands, and the union–find the incremental passes run on.
type coupledSweep struct {
	cells   []sweep.Cell
	rateIdx []int      // rate positions, highest rate first (ties: grid order)
	rates   []float64  // rates[j] = cells[rateIdx[j]].Rate: the walk's rates
	u       []float64  // one uniform per element, drawn in element order
	band    []int32    // band[e]: the first walk position whose rate u[e] clears
	order   []int32    // elements grouped by band, element order within a band
	bounds  []int32    // band j is order[bounds[j]:bounds[j+1]]
	d       ufind.DSU  // the incremental pass's union–find over the vertices
	edges   [][2]int32 // iid-edge groups: g.Edges(), in draw order (built on first use)
}

func newCoupledSweep(cells []sweep.Cell) *coupledSweep {
	cs := &coupledSweep{cells: cells, rateIdx: make([]int, len(cells))}
	for i := range cs.rateIdx {
		cs.rateIdx[i] = i
	}
	slices.SortStableFunc(cs.rateIdx, func(a, b int) int {
		switch {
		case cells[a].Rate > cells[b].Rate:
			return -1
		case cells[a].Rate < cells[b].Rate:
			return 1
		}
		return 0
	})
	cs.rates = make([]float64, len(cells))
	for j, ri := range cs.rateIdx {
		cs.rates[j] = cells[ri].Rate
	}
	// One band per walk position and one for the draws below every rate,
	// each counted two slots up so that placement can shift it down.
	cs.bounds = make([]int32, len(cells)+3)
	return cs
}

// run executes one coupled trial: draw a uniform per element from crng
// (element order — the contract that makes the draws shareable), file
// each element into band j, the first walk position (highest rate
// first) whose rate its draw clears, or into the last band if it
// clears none, then walk the positions, activating band j before
// measuring position j. The elements active there are exactly
// {e : u[e] ≥ rate}, whatever order they were added in. add(e)
// activates element e at most once per trial; measure(ri, alive)
// records at rate position ri with `alive` elements active.
func (cs *coupledSweep) run(elements int, crng *xrand.RNG, add func(e int), measure func(ri, alive int) error) error {
	if cap(cs.u) < elements {
		cs.u = make([]float64, elements)
		cs.band = make([]int32, elements)
		cs.order = make([]int32, elements)
	}
	u, band, order := cs.u[:elements], cs.band[:elements], cs.order[:elements]
	rates, bounds := cs.rates, cs.bounds
	clear(bounds)
	for e := range u {
		x := crng.Float64()
		u[e] = x
		// rates is non-increasing, so x ≥ rates[j] holds from the first
		// such j on.
		b := sort.Search(len(rates), func(j int) bool { return x >= rates[j] })
		band[e] = int32(b)
		bounds[b+2]++
	}
	// After the prefix sum bounds[j+1] is where band j starts; placing
	// band j's elements advances it to where band j ends, so band j ends
	// up as order[bounds[j]:bounds[j+1]].
	for j := 2; j < len(bounds); j++ {
		bounds[j] += bounds[j-1]
	}
	for e, b := range band {
		order[bounds[b+1]] = int32(e)
		bounds[b+1]++
	}
	for j, ri := range cs.rateIdx {
		for _, e := range order[bounds[j]:bounds[j+1]] {
			add(int(e))
		}
		if err := measure(ri, int(bounds[j+1])); err != nil {
			return err
		}
	}
	return nil
}

// unionFind runs one coupled trial as an incremental union–find pass
// over cs.d: under iid-node faults the elements are vertices, each
// occupied vertex joining its occupied neighbours (site percolation);
// under iid-edge faults they are edges, each opened edge joining its
// endpoints (bond percolation). measure(ri, alive) reads cs.d.
func (cs *coupledSweep) unionFind(g *graph.Graph, crng *xrand.RNG, measure func(ri, alive int) error) error {
	n := g.N()
	if cs.cells[0].Model == sweep.ModelIIDNode {
		cs.d.ResetInactive(n)
		return cs.run(n, crng, func(v int) { cs.d.ActivateJoin(v, g.Neighbors(v)) }, measure)
	}
	if cs.edges == nil {
		cs.edges = g.Edges()
	}
	cs.d.Reset(n)
	return cs.run(len(cs.edges), crng, func(e int) {
		cs.d.Union(int(cs.edges[e][0]), int(cs.edges[e][1]))
	}, measure)
}

// setupPercolationCoupled sweeps γ over the whole rate axis with one
// incremental union–find pass per trial — the Newman–Ziff idea applied
// to the grid's own rate points.
func setupPercolationCoupled(g *graph.Graph, cells []sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*sweep.Recorder) (sweep.CoupledRun, error) {
	if g.N() == 0 {
		return sweep.CoupledRun{}, fmt.Errorf("empty graph")
	}
	for ri, c := range cells {
		recs[ri].Const("p_survive", 1-c.Rate)
	}
	cs := newCoupledSweep(cells)
	trial := func(t int, ws *graph.Workspace, crng *xrand.RNG, mrngs []*xrand.RNG, recs []*sweep.Recorder) error {
		return cs.unionFind(g, crng, func(ri, _ int) error {
			recs[ri].Observe("gamma", cs.d.Gamma())
			return nil
		})
	}
	return sweep.CoupledRun{Trial: trial}, nil
}

// setupShatterCoupled tracks component count, largest-component
// fraction and the Herfindahl fragmentation index Σ(s_i/n)² across the
// rate axis in the same incremental pass (the union–find maintains the
// component count and Σ s_i² under activation and union).
func setupShatterCoupled(g *graph.Graph, cells []sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*sweep.Recorder) (sweep.CoupledRun, error) {
	if g.N() == 0 {
		return sweep.CoupledRun{}, fmt.Errorf("empty graph")
	}
	nn := float64(g.N())
	elements := g.N()
	if cells[0].Model != sweep.ModelIIDNode {
		elements = g.M()
	}
	cs := newCoupledSweep(cells)
	trial := func(t int, ws *graph.Workspace, crng *xrand.RNG, mrngs []*xrand.RNG, recs []*sweep.Recorder) error {
		return cs.unionFind(g, crng, func(ri, alive int) error {
			rec := recs[ri]
			rec.Observe("faults", float64(elements-alive))
			rec.Observe("gamma", float64(cs.d.Largest())/nn)
			rec.Observe("comps", float64(cs.d.Components()))
			rec.Observe("frag", float64(cs.d.SumSquares())/(nn*nn))
			return nil
		})
	}
	return sweep.CoupledRun{Trial: trial}, nil
}

// setupResidualCoupled measures the surviving component's node and edge
// expansion at every rate of one coupled realization: each rate's
// survivor is built from the shared draws and restricted to its largest
// component, and the cut finder (the dominant cost) runs per rate,
// drawing from that rate's own measurement stream. Fault-free baselines
// are measured once per group instead of once per rate cell.
func setupResidualCoupled(g *graph.Graph, cells []sweep.Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*sweep.Recorder) (sweep.CoupledRun, error) {
	if g.N() < 2 {
		return sweep.CoupledRun{}, fmt.Errorf("graph too small")
	}
	alpha0 := measuredNodeAlpha(g, rng.Split())
	alphaE0 := measuredEdgeAlpha(g, rng.Split())
	for _, rec := range recs {
		rec.Const("alpha_node_0", alpha0)
		rec.Const("alpha_edge_0", alphaE0)
	}
	site := cells[0].Model == sweep.ModelIIDNode
	n := g.N()
	elements := n
	if !site {
		elements = g.M()
	}
	nn := float64(n)
	cs := newCoupledSweep(cells)
	var finder cuts.Workspace
	trial := func(t int, ws *graph.Workspace, crng *xrand.RNG, mrngs []*xrand.RNG, recs []*sweep.Recorder) error {
		return cs.run(elements, crng, func(int) {}, func(ri, _ int) error {
			r := cells[ri].Rate
			var sub *graph.Sub
			if site {
				keep := ws.Mask(n)
				for v := range keep {
					keep[v] = cs.u[v] >= r
				}
				sub = g.InduceInto(ws, keep)
			} else {
				// FilterEdgesInto visits edges in ForEachEdge order — the
				// order the coupling draws were made in — so a running
				// index aligns draw and edge.
				ei := 0
				sub, _ = g.FilterEdgesInto(ws, func(_, _ int) bool {
					ei++
					return cs.u[ei-1] < r
				})
			}
			comp := sub.LargestComponentSubInto(ws).G
			if comp.N() < 2 {
				return nil
			}
			na, ea := core.MeasureResidualWs(comp, mrngs[ri], &finder)
			rec := recs[ri]
			rec.Observe("alpha_node", na)
			rec.Observe("alpha_edge", ea)
			rec.Observe("gamma", float64(comp.N())/nn)
			return nil
		})
	}
	finish := func(ri int, rec *sweep.Recorder) error {
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
	return sweep.CoupledRun{Trial: trial, Finish: finish}, nil
}
