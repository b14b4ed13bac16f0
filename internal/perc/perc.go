// Package perc is the percolation engine behind the random-fault
// experiments: the §1.1 critical-probability survey (E8), the Theorem
// 3.1 disintegration demonstration (E5), and the span-vs-expansion
// predictor comparison (E10).
//
// Two complementary methods are provided:
//
//   - Newman–Ziff sweeps: elements (sites or bonds) are added one at a
//     time in random order while a union–find structure tracks the
//     largest cluster, yielding the whole curve γ(k occupied) of one
//     realization in O((n+m)·α(n)) — orders of magnitude faster than
//     independent sampling per p.
//
//   - Direct Monte-Carlo estimation of γ(G^(p)) at a fixed p, used by
//     the bisection-based critical-probability estimator where unbiased
//     point estimates matter more than whole curves, and by the sweep's
//     percolation measure. Each realization runs on a graph.Workspace
//     through package graph's component passes: the one labeller under
//     the occupation mask for sites, the one edge-fault pass for bonds.
package perc

import (
	"faultexp/internal/graph"
	"faultexp/internal/stats"
	"faultexp/internal/ufind"
	"faultexp/internal/xrand"
)

// Mode distinguishes site (node) from bond (edge) percolation. The paper
// studies node faults (site) but quotes bond results (e.g. Kesten's
// p* = 1/2 for the 2-D mesh), so both are implemented.
type Mode int

const (
	// Site percolation: each node is occupied with probability p.
	Site Mode = iota
	// Bond percolation: all nodes present; each edge open with
	// probability p.
	Bond
)

func (m Mode) String() string {
	if m == Site {
		return "site"
	}
	return "bond"
}

// Curve is an averaged Newman–Ziff sweep: Gamma[k] is the expected
// fraction of all n vertices in the largest cluster when exactly k
// elements (sites or bonds) are occupied.
type Curve struct {
	Mode     Mode
	N        int       // vertices in the graph
	Elements int       // sites (=N) or bonds (=M)
	Gamma    []float64 // length Elements+1; Gamma[0] = 0 (site) or isolated-vertex value (bond)
}

// AtP evaluates the curve at occupation probability p using the
// canonical-ensemble approximation k ≈ p·Elements (exact convolution
// with Binomial(Elements, p) differs by O(1/√Elements), immaterial at
// the sizes the experiments run).
func (c *Curve) AtP(p float64) float64 {
	if len(c.Gamma) == 0 {
		return 0
	}
	k := int(p*float64(c.Elements) + 0.5)
	if k < 0 {
		k = 0
	}
	if k >= len(c.Gamma) {
		k = len(c.Gamma) - 1
	}
	return c.Gamma[k]
}

// Sweep runs trials independent Newman–Ziff sweeps and returns the
// averaged curve.
func Sweep(g *graph.Graph, mode Mode, trials int, rng *xrand.RNG) *Curve {
	n := g.N()
	elements := n
	if mode == Bond {
		elements = g.M()
	}
	acc := make([]float64, elements+1)
	for t := 0; t < trials; t++ {
		r := rng.Split()
		switch mode {
		case Site:
			sweepSite(g, acc, r)
		case Bond:
			sweepBond(g, acc, r)
		}
	}
	for i := range acc {
		acc[i] /= float64(trials)
	}
	return &Curve{Mode: mode, N: n, Elements: elements, Gamma: acc}
}

func sweepSite(g *graph.Graph, acc []float64, rng *xrand.RNG) {
	n := g.N()
	d := ufind.NewInactive(n)
	order := rng.Perm(n)
	invN := 1 / float64(n)
	for k, v := range order {
		d.ActivateJoin(v, g.Neighbors(v))
		acc[k+1] += float64(d.Largest()) * invN
	}
}

func sweepBond(g *graph.Graph, acc []float64, rng *xrand.RNG) {
	n := g.N()
	edges := g.Edges()
	d := ufind.New(n)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	invN := 1 / float64(n)
	if n > 0 {
		acc[0] += 1 * invN // largest cluster with no open bonds: a single vertex
	}
	for k, e := range edges {
		d.Union(int(e[0]), int(e[1]))
		acc[k+1] += float64(d.Largest()) * invN
	}
}

// GammaAtP estimates E[γ(G^(p))] by trials independent realizations.
func GammaAtP(g *graph.Graph, mode Mode, p float64, trials int, rng *xrand.RNG) float64 {
	return GammaAtPWs(g, mode, p, trials, rng, graph.NewWorkspace())
}

// GammaAtPWs is GammaAtP on a caller-owned graph workspace — the
// percolation measure's steady-state trial path: after the first
// realization at a given size, further realizations allocate nothing.
// The draw sequence is identical to GammaAtP's, so estimates are
// bit-equal for the same rng state.
func GammaAtPWs(g *graph.Graph, mode Mode, p float64, trials int, rng *xrand.RNG, ws *graph.Workspace) float64 {
	sum := 0.0
	for t := 0; t < trials; t++ {
		sum += gammaOnce(g, mode, p, rng, ws)
	}
	return sum / float64(trials)
}

// gammaOnce draws one realization and returns its γ: a site draw per
// vertex in ascending order, labelled under the occupation mask, or a
// bond draw per edge in ForEachEdge order, through graph's edge pass.
func gammaOnce(g *graph.Graph, mode Mode, p float64, rng *xrand.RNG, ws *graph.Workspace) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	open := xrand.NewBernoulli(p)
	var sizes []int
	if mode == Site {
		alive := ws.Mask(n)
		for v := range alive {
			alive[v] = open.Next(rng)
		}
		_, sizes = g.ComponentsInto(ws, alive)
	} else {
		sizes, _ = g.FilteredComponentSizesInto(ws, func(u, v int) bool { return !open.Next(rng) })
	}
	largest := 0
	for _, s := range sizes {
		largest = max(largest, s)
	}
	return float64(largest) / float64(n)
}

// CriticalP estimates the percolation threshold: the smallest p at which
// E[γ(G^(p))] reaches target (a small constant such as 0.05·γmax). It
// bisects with Monte-Carlo point estimates of trials realizations each.
func CriticalP(g *graph.Graph, mode Mode, target float64, trials, iters int, rng *xrand.RNG) float64 {
	return stats.MonotoneThreshold(0, 1, target, iters, func(p float64) float64 {
		return GammaAtP(g, mode, p, trials, rng.Split())
	})
}

// CriticalPFromCurve estimates the threshold from an averaged sweep
// curve: the smallest p (on a grid of the curve's resolution) whose γ
// reaches target. One sweep family amortizes across all thresholds.
func CriticalPFromCurve(c *Curve, target float64) float64 {
	for k, gamma := range c.Gamma {
		if gamma >= target {
			return float64(k) / float64(c.Elements)
		}
	}
	return 1
}
