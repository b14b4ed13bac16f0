// Package cuts locates low-expansion vertex sets — the "∃S_i such that
// |Γ(S_i)| ≤ α·ε·|S_i|" step of the paper's Prune and Prune2 loops.
//
// The paper's algorithms are existential (the authors explicitly do not
// claim polynomial time, and no constant-factor approximation for graph
// expansion of unknown topology is known). This package realises the step
// with a layered strategy:
//
//   - exact subset dynamic programming for small graphs (ground truth),
//   - spectral sweep cuts over the Fiedler vector,
//   - BFS-ball sweeps from sampled seeds (always-connected candidates),
//   - greedy local search refinement of the best candidate.
//
// Every returned set is an *actual witness* whose expansion is evaluated
// directly, so the culling certificates produced by the pruning layer are
// sound regardless of heuristic quality.
package cuts

import (
	"slices"

	"faultexp/internal/expansion"
	"faultexp/internal/graph"
	"faultexp/internal/spectral"
	"faultexp/internal/xrand"
)

// Mode selects which quotient a search minimises.
type Mode int

const (
	// NodeMode minimises |Γ(S)|/|S| (Prune's predicate).
	NodeMode Mode = iota
	// EdgeMode minimises cut(S)/|S| (Prune2's predicate).
	EdgeMode
)

// Options tunes the finder. The zero value selects sensible defaults.
type Options struct {
	// ExactMaxN: graphs with at most this many vertices use the exact
	// subset DP. Default 16; hard cap expansion.MaxExactN.
	ExactMaxN int
	// RNG supplies randomness; required (the finder panics without it).
	RNG *xrand.RNG

	// Ablation switches (used by experiment E15 to quantify what each
	// layer of the finder contributes; all false = full suite).
	DisableSweep       bool // skip spectral sweep candidates
	DisableBalls       bool // skip BFS-ball candidates
	DisableLocalSearch bool // skip greedy refinement
}

func (o Options) withDefaults() Options {
	if o.ExactMaxN == 0 {
		o.ExactMaxN = 16
	}
	if o.ExactMaxN > expansion.MaxExactN {
		o.ExactMaxN = expansion.MaxExactN
	}
	if o.RNG == nil {
		panic("cuts: Options.RNG is required")
	}
	return o
}

// FindBest searches for the minimum-quotient set with 1 ≤ |S| ≤ maxSize.
// If connected is true, only connected candidate sets are returned (the
// requirement of Prune2). Returns ok=false only when no candidate exists
// (n < 2 or maxSize < 1). It is a thin wrapper over FindBestWs on a
// throwaway workspace, so the returned Set is uniquely owned.
func FindBest(g *graph.Graph, mode Mode, maxSize int, connected bool, opt Options) (expansion.Result, bool) {
	var ws Workspace
	return FindBestWs(g, mode, maxSize, connected, opt, &ws)
}

func quotient(r expansion.Result, mode Mode) float64 {
	if mode == NodeMode {
		return r.NodeAlpha
	}
	return r.EdgeAlpha
}

// finderScratch is reusable per-FindBest scratch for the BFS-ball
// orders, so the ball layer stops allocating per seed. seen is cleared
// at each use; nothing escapes a single FindBest call.
type finderScratch struct {
	seen []bool
	ord  []int
}

func (s *finderScratch) grow(n int) {
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
	}
	s.seen = s.seen[:n]
	clear(s.seen)
}

// setQuotient is the tracked set's quotient in the given mode.
func setQuotient(t *expansion.Tracker, mode Mode) float64 {
	if mode == NodeMode {
		return float64(t.Boundary()) / float64(t.Size())
	}
	return float64(t.Cut()) / float64(t.Size())
}

// sweepCandidates orders vertices by the Fiedler vector, evaluates every
// prefix up to maxSize, and feeds the finder the best prefix and (for
// the connected variant) each component of that prefix.
func sweepCandidates(g *graph.Graph, mode Mode, maxSize int, connected bool, rng *xrand.RNG, ws *Workspace, f *finder) {
	n := g.N()
	fied := spectral.FiedlerScratch(g, 0, rng, &ws.spec)
	if cap(ws.order) < n {
		ws.order = make([]int, n)
		ws.rev = make([]int, n)
	}
	order := ws.order[:n]
	for i := range order {
		order[i] = i
	}
	// The comparator closure is built once per workspace and reads the
	// current sort key through ws, so the sort itself never allocates.
	ws.sortKey = fied.Vector
	if ws.sortCmp == nil {
		ws.sortCmp = func(a, b int) int {
			ka, kb := ws.sortKey[a], ws.sortKey[b]
			if ka < kb {
				return -1
			}
			if kb < ka {
				return 1
			}
			return 0
		}
	}
	slices.SortFunc(order, ws.sortCmp)

	for _, dir := range [2]bool{false, true} {
		ord := order
		if dir {
			ord = ws.rev[:n]
			for i := range ord {
				ord[i] = order[n-1-i]
			}
		}
		node, edge := bestPrefixes(g, ord, maxSize, &ws.set)
		k := node
		if mode == EdgeMode {
			k = edge
		}
		set := ord[:k]
		f.consider(set)
		if connected {
			bestComponentOfWs(g, set, ws, f)
		}
	}
}

// bestPrefixes scans the prefixes of ord of at most maxSize and fewer
// than n vertices on t and returns the lengths of the first
// minimum-node-quotient and the first minimum-edge-quotient prefix
// (both 0 only if there is no prefix to scan).
func bestPrefixes(g *graph.Graph, ord []int, maxSize int, t *expansion.Tracker) (node, edge int) {
	t.Reset(g, nil)
	var nodeQ, edgeQ float64
	for k, v := range ord[:min(len(ord), maxSize, g.N()-1)] {
		t.Add(v)
		if qn := setQuotient(t, NodeMode); node == 0 || qn < nodeQ {
			node, nodeQ = k+1, qn
		}
		if qe := setQuotient(t, EdgeMode); edge == 0 || qe < edgeQ {
			edge, edgeQ = k+1, qe
		}
	}
	return node, edge
}

// ballCandidates grows BFS balls from 4 + 2⌊log₂ n⌋ sampled seeds and
// evaluates each prefix of the BFS order (always a connected set).
func ballCandidates(g *graph.Graph, maxSize int, rng *xrand.RNG, ws *Workspace, f *finder) {
	n := g.N()
	seeds := 4
	for s := n; s > 1; s >>= 1 {
		seeds += 2
	}
	if seeds > n {
		seeds = n
	}
	sample, m := rng.SampleKInto(n, seeds, ws.seedBuf, ws.seedMap)
	ws.seedBuf, ws.seedMap = sample, m
	for _, s := range sample {
		ord := bfsOrder(g, s, maxSize, &ws.scr)
		node, edge := bestPrefixes(g, ord, maxSize, &ws.set)
		f.consider(ord[:node])
		if edge != node {
			f.consider(ord[:edge])
		}
	}
}

func bfsOrder(g *graph.Graph, src, limit int, scr *finderScratch) []int {
	scr.grow(g.N())
	seen := scr.seen
	order := append(scr.ord[:0], src)
	defer func() { scr.ord = order[:0] }()
	seen[src] = true
	for i := 0; i < len(order) && len(order) < limit; i++ {
		for _, w := range g.Neighbors(order[i]) {
			if !seen[w] {
				seen[w] = true
				order = append(order, int(w))
				if len(order) >= limit {
					break
				}
			}
		}
	}
	return order
}

// localSearchPasses is the number of greedy improvement passes.
const localSearchPasses = 3

// localImprove greedily moves single vertices in/out of the set while the
// quotient improves, up to the given number of passes. The returned set
// aliases ws.localOut.
func localImprove(g *graph.Graph, set []int, mode Mode, maxSize int, passes int, rng *xrand.RNG, ws *Workspace) []int {
	n := g.N()
	t := &ws.set
	t.Reset(g, set)

	order := rng.PermInto(n, ws.perm)
	ws.perm = order
	for pass := 0; pass < passes; pass++ {
		improved := false
		cur := setQuotient(t, mode)
		for _, v := range order {
			if t.Contains(v) {
				if t.Size() <= 1 {
					continue
				}
				t.Remove(v)
				if q := setQuotient(t, mode); q < cur {
					cur = q
					improved = true
				} else {
					t.Add(v)
				}
			} else {
				if t.Size() >= maxSize || !t.Touches(v) {
					continue // only grow along the boundary
				}
				t.Add(v)
				if q := setQuotient(t, mode); q < cur {
					cur = q
					improved = true
				} else {
					t.Remove(v)
				}
			}
		}
		if !improved {
			break
		}
	}
	out := ws.localOut[:0]
	for v := 0; v < n; v++ {
		if t.Contains(v) {
			out = append(out, v)
		}
	}
	ws.localOut = out
	return out
}
