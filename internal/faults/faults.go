// Package faults implements the paper's fault models: random node/edge
// faults (each element fails independently with probability p, §3) and
// adversarial node faults (§2), including the specific adversaries the
// paper's lower-bound proofs construct — the chain-center adversary of
// Theorem 2.3 and the recursive separator adversary of Theorem 2.5 —
// plus generic attack strategies (bottleneck-targeting, degree-targeting,
// random baseline) for the experiment harness.
package faults

import (
	"math"
	"sort"
	"sync"

	"faultexp/internal/cuts"
	"faultexp/internal/expansion"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Pattern is a set of faulty nodes of some graph.
//
// Invariant: Nodes is sorted ascending and duplicate-free. Every
// constructor in this package (IIDNodes, the adversaries, NewPattern)
// maintains it; code assembling a Pattern literal from raw indices
// should go through NewPattern, which canonicalizes. The invariant makes
// patterns comparable byte-for-byte across runs and lets Count mean
// "number of faulty nodes" rather than "length of a multiset".
type Pattern struct {
	Nodes []int
}

// NewPattern returns a canonical Pattern over the given nodes: sorted
// ascending with duplicates removed. The input slice is taken over (and
// may be modified); pass a copy to retain the original.
func NewPattern(nodes []int) Pattern {
	sort.Ints(nodes)
	w := 0
	for i, v := range nodes {
		if i == 0 || v != nodes[i-1] {
			nodes[w] = v
			w++
		}
	}
	return Pattern{Nodes: nodes[:w]}
}

// Count returns the number of faulty nodes.
func (p Pattern) Count() int { return len(p.Nodes) }

// Apply removes the faulty nodes from g, returning the surviving induced
// subgraph with provenance.
func (p Pattern) Apply(g *graph.Graph) *graph.Sub {
	return g.RemoveVertices(p.Nodes)
}

// IIDNodes makes each node faulty independently with probability prob,
// drawing one Bernoulli variate per vertex in ascending order. The
// result is sorted-unique by construction. The slice is sized to the
// expected fault count up front (plus slack), so the common case does a
// single allocation.
func IIDNodes(g *graph.Graph, prob float64, rng *xrand.RNG) Pattern {
	nodes := make([]int, 0, expectedFaults(g.N(), prob))
	fail := xrand.NewBernoulli(prob)
	for v := 0; v < g.N(); v++ {
		if fail.Next(rng) {
			nodes = append(nodes, v)
		}
	}
	return Pattern{Nodes: nodes}
}

// expectedFaults sizes a fault buffer: mean + 4 standard deviations,
// clamped to [0, n] — outside this the append path's doubling covers the
// tail.
func expectedFaults(n int, prob float64) int {
	if prob <= 0 || n == 0 {
		return 0
	}
	if prob >= 1 {
		return n
	}
	mean := float64(n) * prob
	slack := 4 * math.Sqrt(mean*(1-prob))
	c := int(mean+slack) + 1
	if c > n {
		c = n
	}
	return c
}

// ExactRandomNodes picks exactly f faulty nodes uniformly at random.
func ExactRandomNodes(g *graph.Graph, f int, rng *xrand.RNG) Pattern {
	if f > g.N() {
		f = g.N()
	}
	return NewPattern(rng.SampleK(g.N(), f))
}

// Adversary selects up to f nodes to fail on a given graph.
type Adversary interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Select returns at most f faulty nodes.
	Select(g *graph.Graph, f int, rng *xrand.RNG) Pattern
}

// RandomAdversary fails f uniformly random nodes — the baseline every
// targeted strategy is compared against.
type RandomAdversary struct{}

// Name implements Adversary.
func (RandomAdversary) Name() string { return "random" }

// Select implements Adversary.
func (RandomAdversary) Select(g *graph.Graph, f int, rng *xrand.RNG) Pattern {
	return ExactRandomNodes(g, f, rng)
}

// DegreeAdversary fails the f highest-degree nodes.
type DegreeAdversary struct{}

// Name implements Adversary.
func (DegreeAdversary) Name() string { return "max-degree" }

// Select implements Adversary.
func (DegreeAdversary) Select(g *graph.Graph, f int, rng *xrand.RNG) Pattern {
	n := g.N()
	if f > n {
		f = n
	}
	idx := rng.Perm(n) // random tie-breaking
	// partial selection sort of top-f by degree
	for i := 0; i < f; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if g.Degree(idx[j]) > g.Degree(idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return NewPattern(append([]int(nil), idx[:f]...))
}

// searchScratch is the adversaries' search state: the cut finder's
// workspace, the BFS ball's buffers, and a graph workspace for masks,
// induced fragments and component labels. faults.Model has no room for
// per-worker scratch, so Select and SeparatorAttack borrow one from
// searchPool for the length of a call.
type searchScratch struct {
	finder cuts.Workspace
	gw     graph.Workspace
	ball   expansion.Tracker
	order  []int  // BFS order of the ball being grown
	seen   []bool // BFS marks of the ball being grown
	best   []int  // the best ball so far, copied out of order
	seeds  []int
	seedIx map[int]int
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// BottleneckAdversary finds a low-node-expansion set U (the graph's
// bottleneck) and fails its neighbourhood Γ(U), disconnecting U from the
// rest — the attack that makes Theorem 2.1's bound tight on bottlenecked
// topologies.
type BottleneckAdversary struct{}

// Name implements Adversary.
func (BottleneckAdversary) Name() string { return "bottleneck" }

// Select implements Adversary.
func (BottleneckAdversary) Select(g *graph.Graph, f int, rng *xrand.RNG) Pattern {
	if f <= 0 || g.N() < 2 {
		return Pattern{}
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	// Find the set whose boundary fits the budget and maximizes the
	// disconnected mass: scan the finder's best cut; if its boundary is
	// larger than f, shrink via BFS-ball candidates.
	opt := cuts.Options{RNG: rng}
	best, ok := cuts.FindBestWs(g, cuts.NodeMode, g.N()/2, false, opt, &sc.finder)
	if !ok {
		return ExactRandomNodes(g, f, rng)
	}
	inU := sc.gw.SetMask(g.N(), best.Set)
	boundary := expansion.Boundary(g, inU)
	if len(boundary) <= f {
		// Spend the remaining budget on random nodes outside U∪Γ(U).
		pat := boundary
		extra := f - len(boundary)
		if extra > 0 {
			taken := make(map[int]bool, len(pat))
			for _, v := range pat {
				taken[v] = true
			}
			for _, v := range rng.Perm(g.N()) {
				if extra == 0 {
					break
				}
				if !taken[v] && !inU[v] {
					pat = append(pat, v)
					taken[v] = true
					extra--
				}
			}
		}
		return NewPattern(pat)
	}
	// Budget too small for the global bottleneck: cut off the largest
	// BFS ball whose boundary fits.
	sc.seeds, sc.seedIx = rng.SampleKInto(g.N(), min(8, g.N()), sc.seeds, sc.seedIx)
	sc.best = sc.best[:0]
	for _, seed := range sc.seeds {
		if ball := bfsBallWithBoundaryBudget(g, seed, f, sc); len(ball) > len(sc.best) {
			sc.best = append(sc.best[:0], ball...)
		}
	}
	if len(sc.best) == 0 {
		return ExactRandomNodes(g, f, rng)
	}
	return NewPattern(expansion.Boundary(g, sc.gw.SetMask(g.N(), sc.best)))
}

// bfsBallWithBoundaryBudget grows a BFS ball from seed on sc's buffers
// and returns the largest prefix whose boundary size is at most f. The
// prefix aliases sc.order: the next call overwrites it.
func bfsBallWithBoundaryBudget(g *graph.Graph, seed, f int, sc *searchScratch) []int {
	n := g.N()
	sc.ball.Reset(g, nil)
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	seen := sc.seen[:n]
	clear(seen)
	order := append(sc.order[:0], seed)
	seen[seed] = true
	best := 0
	for i := 0; i < len(order) && len(order) <= n/2; i++ {
		v := order[i]
		sc.ball.Add(v)
		if sc.ball.Boundary() <= f {
			best = i + 1
		}
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				order = append(order, int(w))
			}
		}
	}
	sc.order = order
	return order[:best]
}

// ChainCenterAdversary is the Theorem 2.3 attack on a chain-replaced
// graph: fail the central node of every chain (or of the first f chains
// if the budget is smaller), shattering the graph into components of
// size ≈ δ·k/2.
type ChainCenterAdversary struct {
	CG *gen.ChainGraph
}

// Name implements Adversary.
func (ChainCenterAdversary) Name() string { return "chain-center" }

// Select implements Adversary.
func (a ChainCenterAdversary) Select(g *graph.Graph, f int, rng *xrand.RNG) Pattern {
	centers := a.CG.CenterSet()
	if f < len(centers) {
		// Fail a random subset of centers when the budget is short.
		idx := rng.SampleK(len(centers), f)
		sel := make([]int, f)
		for i, j := range idx {
			sel[i] = centers[j]
		}
		return NewPattern(sel)
	}
	return NewPattern(centers)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
