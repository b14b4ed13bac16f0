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

// finderScratch is reusable per-FindBest scratch shared by every prefix
// sweep in one search (Fiedler sweeps and all BFS-ball seeds), so the
// candidate layers stop allocating per seed. Buffers are cleared at each
// use site; nothing escapes a single FindBest call.
type finderScratch struct {
	inU  []bool
	cnt  []int
	seen []bool
	ord  []int
}

func (s *finderScratch) grow(n int) {
	if cap(s.inU) < n {
		s.inU = make([]bool, n)
		s.cnt = make([]int, n)
		s.seen = make([]bool, n)
	}
	s.inU = s.inU[:n]
	s.cnt = s.cnt[:n]
	s.seen = s.seen[:n]
	for i := 0; i < n; i++ {
		s.inU[i] = false
		s.cnt[i] = 0
		s.seen[i] = false
	}
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
		if bestK := bestPrefix(g, ord, mode, maxSize, &ws.scr); bestK >= 0 {
			set := ord[:bestK+1]
			f.consider(set)
			if connected {
				bestComponentOfWs(g, set, ws, f)
			}
		}
	}
}

// bestPrefix scans prefixes of ord up to maxSize, maintaining boundary
// and cut sizes incrementally, and returns the length-1 index of the
// minimum-quotient prefix (-1 if none).
func bestPrefix(g *graph.Graph, ord []int, mode Mode, maxSize int, scr *finderScratch) int {
	n := g.N()
	scr.grow(n)
	inU, cnt := scr.inU, scr.cnt // #neighbors inside U, for every vertex
	boundary := 0
	cut := 0
	bestK := -1
	bestQ := 0.0
	limit := maxSize
	if limit > n-1 {
		limit = n - 1
	}
	for k := 0; k < limit; k++ {
		v := ord[k]
		// add v
		inside := cnt[v]
		cut += g.Degree(v) - 2*inside
		if inside > 0 {
			boundary-- // v was a boundary vertex
		}
		for _, w := range g.Neighbors(v) {
			cnt[w]++
			if !inU[w] && cnt[w] == 1 {
				boundary++
			}
		}
		inU[v] = true
		var q float64
		if mode == NodeMode {
			q = float64(boundary) / float64(k+1)
		} else {
			q = float64(cut) / float64(k+1)
		}
		if bestK < 0 || q < bestQ {
			bestK, bestQ = k, q
		}
	}
	return bestK
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
		bestPrefixBoth(g, ord, maxSize, &ws.scr, f)
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

// bestPrefixBoth finds the best node-quotient and best edge-quotient
// prefixes of ord in one pass and feeds both to the finder.
func bestPrefixBoth(g *graph.Graph, ord []int, maxSize int, scr *finderScratch, f *finder) {
	n := g.N()
	scr.grow(n) // clears inU/cnt left by the previous candidate order
	inU, cnt := scr.inU, scr.cnt
	boundary, cut := 0, 0
	bestNodeK, bestEdgeK := -1, -1
	bestNodeQ, bestEdgeQ := 0.0, 0.0
	limit := len(ord)
	if limit > maxSize {
		limit = maxSize
	}
	if limit > n-1 {
		limit = n - 1
	}
	for k := 0; k < limit; k++ {
		v := ord[k]
		inside := cnt[v]
		cut += g.Degree(v) - 2*inside
		if inside > 0 {
			boundary--
		}
		for _, w := range g.Neighbors(v) {
			cnt[w]++
			if !inU[w] && cnt[w] == 1 {
				boundary++
			}
		}
		inU[v] = true
		qn := float64(boundary) / float64(k+1)
		qe := float64(cut) / float64(k+1)
		if bestNodeK < 0 || qn < bestNodeQ {
			bestNodeK, bestNodeQ = k, qn
		}
		if bestEdgeK < 0 || qe < bestEdgeQ {
			bestEdgeK, bestEdgeQ = k, qe
		}
	}
	if bestNodeK >= 0 {
		f.consider(ord[:bestNodeK+1])
	}
	if bestEdgeK >= 0 && bestEdgeK != bestNodeK {
		f.consider(ord[:bestEdgeK+1])
	}
}

// liState carries the incremental cut/boundary bookkeeping of the local
// search. Methods on a stack value replace the old per-call closures so
// the refinement pass stays allocation-free.
type liState struct {
	g        *graph.Graph
	mode     Mode
	inU      []bool
	cnt      []int // #neighbors inside U, for every vertex
	size     int
	cut      int
	boundary int
}

func (s *liState) quot() float64 {
	if s.size == 0 {
		return 1e18
	}
	if s.mode == NodeMode {
		return float64(s.boundary) / float64(s.size)
	}
	return float64(s.cut) / float64(s.size)
}

func (s *liState) add(v int) {
	if s.cnt[v] > 0 {
		s.boundary--
	}
	s.cut += s.g.Degree(v) - 2*s.cnt[v]
	for _, w := range s.g.Neighbors(v) {
		if !s.inU[w] && s.cnt[w] == 0 {
			s.boundary++
		}
		s.cnt[w]++
	}
	s.inU[v] = true
	s.size++
}

func (s *liState) remove(v int) {
	s.inU[v] = false
	s.size--
	s.cut -= s.g.Degree(v) - 2*s.cnt[v]
	for _, w := range s.g.Neighbors(v) {
		s.cnt[w]--
		if !s.inU[w] && s.cnt[w] == 0 {
			s.boundary--
		}
	}
	if s.cnt[v] > 0 {
		s.boundary++
	}
}

// localSearchPasses is the number of greedy improvement passes.
const localSearchPasses = 3

// localImprove greedily moves single vertices in/out of the set while the
// quotient improves, up to the given number of passes. The returned set
// aliases ws.localOut.
func localImprove(g *graph.Graph, set []int, mode Mode, maxSize int, passes int, rng *xrand.RNG, ws *Workspace) []int {
	n := g.N()
	ws.scr.grow(n) // clears inU/cnt left by the candidate layers
	st := liState{g: g, mode: mode, inU: ws.scr.inU, cnt: ws.scr.cnt, size: len(set)}
	for _, v := range set {
		st.inU[v] = true
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if st.inU[w] {
				st.cnt[v]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if st.inU[v] {
			st.cut += g.Degree(v) - st.cnt[v]
		} else if st.cnt[v] > 0 {
			st.boundary++
		}
	}

	order := rng.PermInto(n, ws.perm)
	ws.perm = order
	for pass := 0; pass < passes; pass++ {
		improved := false
		cur := st.quot()
		for _, v := range order {
			if st.inU[v] {
				if st.size <= 1 {
					continue
				}
				st.remove(v)
				if q := st.quot(); q < cur {
					cur = q
					improved = true
				} else {
					st.add(v)
				}
			} else {
				if st.size >= maxSize || st.cnt[v] == 0 {
					continue // only grow along the boundary
				}
				st.add(v)
				if q := st.quot(); q < cur {
					cur = q
					improved = true
				} else {
					st.remove(v)
				}
			}
		}
		if !improved {
			break
		}
	}
	out := ws.localOut[:0]
	for v := 0; v < n; v++ {
		if st.inU[v] {
			out = append(out, v)
		}
	}
	ws.localOut = out
	return out
}
