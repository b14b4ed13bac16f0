// Package compact implements the paper's compact sets — vertex sets U
// such that both U and V∖U induce connected subgraphs — which underpin
// the span parameter (§1.4, equation (1)) and the Prune2 analysis.
//
// It provides the compactness test, exhaustive enumeration for small
// graphs (exact span computation), random sampling of compact sets for
// large graphs, and the Lemma 3.3 compactification K_G(S) that maps any
// connected set to a compact set of no larger edge expansion.
package compact

import (
	"math/bits"

	"faultexp/internal/expansion"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// IsCompact reports whether U (given as a vertex list) and its complement
// are both non-empty and connected in g.
func IsCompact(g *graph.Graph, set []int) bool {
	n := g.N()
	if len(set) == 0 || len(set) >= n {
		return false
	}
	inU := make([]bool, n)
	for _, v := range set {
		inU[v] = true
	}
	return maskSideConnected(g, inU, true) && maskSideConnected(g, inU, false)
}

// maskSideConnected checks connectivity of {v : inU[v] == side}.
func maskSideConnected(g *graph.Graph, inU []bool, side bool) bool {
	n := g.N()
	start := -1
	total := 0
	for v := 0; v < n; v++ {
		if inU[v] == side {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total == 0 {
		return false
	}
	seen := make([]bool, n)
	seen[start] = true
	stack := []int{start}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if inU[w] == side && !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, int(w))
			}
		}
	}
	return count == total
}

// MaxEnumN bounds exhaustive compact-set enumeration (2^n subsets with a
// bitmask connectivity check each).
const MaxEnumN = 20

// Enumerate calls fn for every compact set of g (each unordered
// partition {U, V∖U} is visited twice, once per side, matching the
// paper's definition where U and its complement are distinct compact
// sets). The slice passed to fn is freshly allocated per call. Stops
// early if fn returns false. Panics if g.N() > MaxEnumN.
func Enumerate(g *graph.Graph, fn func(set []int) bool) {
	n := g.N()
	if n > MaxEnumN {
		panic("compact: enumeration limited to small graphs")
	}
	if n < 2 {
		return
	}
	masks := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			masks[v] |= 1 << uint(w)
		}
	}
	fullMask := uint32(1<<uint(n)) - 1
	for s := uint32(1); s < fullMask; s++ {
		if !maskConnected(s, masks) || !maskConnected(fullMask&^s, masks) {
			continue
		}
		set := make([]int, 0, bits.OnesCount32(s))
		for v := 0; v < n; v++ {
			if s&(1<<uint(v)) != 0 {
				set = append(set, v)
			}
		}
		if !fn(set) {
			return
		}
	}
}

func maskConnected(mask uint32, nbrMasks []uint32) bool {
	if mask == 0 {
		return false
	}
	reached := mask & -mask
	for {
		frontier := reached
		next := reached
		for frontier != 0 {
			v := bits.TrailingZeros32(frontier)
			frontier &= frontier - 1
			next |= nbrMasks[v] & mask
		}
		if next == reached {
			break
		}
		reached = next
	}
	return reached == mask
}

// Scratch is reusable per-worker scratch for CompactifyScratch and
// RandomScratch. The zero value is ready to use; buffers grow on demand
// and are retained across calls. Sets returned by the scratch entry
// points alias scr.out and are valid only until the next call on the
// same scratch. Not safe for concurrent use.
type Scratch struct {
	inU      []bool
	labels   []int32
	sizes    []int
	stack    []int
	frontier []int
	comp     []int
	out      []int
	eval     expansion.EvalScratch
}

// growMask returns scr.inU resized to n, all false.
func (scr *Scratch) growMask(n int) []bool {
	if cap(scr.inU) < n {
		scr.inU = make([]bool, n)
	}
	inU := scr.inU[:n]
	for i := range inU {
		inU[i] = false
	}
	scr.inU = inU
	return inU
}

// Random grows a random connected set of roughly targetSize vertices and
// compactifies it by absorbing all complement components except the
// largest (both sides stay connected, so the result is compact). Returns
// nil if g is disconnected or too small. The result size may exceed
// targetSize because of absorption.
func Random(g *graph.Graph, targetSize int, rng *xrand.RNG) []int {
	var scr Scratch
	return RandomScratch(g, targetSize, rng, &scr)
}

// RandomScratch is Random on caller-owned scratch: the same draw
// sequence and result, with the returned set aliasing scr.out.
func RandomScratch(g *graph.Graph, targetSize int, rng *xrand.RNG, scr *Scratch) []int {
	n := g.N()
	if n < 2 || targetSize < 1 || targetSize >= n {
		return nil
	}
	if !connectedScratch(g, scr) {
		return nil
	}
	inU := scr.growMask(n) // also resets the connectivity marks
	start := rng.Intn(n)
	inU[start] = true
	frontier := scr.frontier[:0]
	for _, w := range g.Neighbors(start) {
		if !inU[w] {
			frontier = append(frontier, int(w))
		}
	}
	size := 1
	for size < targetSize && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if inU[v] {
			continue
		}
		inU[v] = true
		size++
		for _, w := range g.Neighbors(v) {
			if !inU[w] {
				frontier = append(frontier, int(w))
			}
		}
	}
	scr.frontier = frontier[:0]
	if size >= n {
		return nil
	}
	// Absorb all complement components except the largest.
	comp, sizes := complementComponentsScratch(g, inU, scr)
	if len(sizes) > 1 {
		largest := 0
		for i, s := range sizes {
			if s > sizes[largest] {
				largest = i
			}
		}
		for v := 0; v < n; v++ {
			if !inU[v] && comp[v] != int32(largest) {
				inU[v] = true
				size++
			}
		}
	}
	if size >= n {
		return nil
	}
	out := scr.out[:0]
	for v := 0; v < n; v++ {
		if inU[v] {
			out = append(out, v)
		}
	}
	scr.out = out
	return out
}

// connectedScratch is g.IsConnected() on scratch buffers (no draws, so
// RandomScratch's rng sequence matches Random's).
func connectedScratch(g *graph.Graph, scr *Scratch) bool {
	n := g.N()
	if n == 0 {
		return false
	}
	seen := scr.growMask(n)
	stack := append(scr.stack[:0], 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, int(w))
			}
		}
	}
	scr.stack = stack[:0]
	return count == n
}

// complementComponentsScratch labels the components of the subgraph
// induced by the complement of inU, on scratch buffers. Vertices in U
// get label -1.
func complementComponentsScratch(g *graph.Graph, inU []bool, scr *Scratch) (labels []int32, sizes []int) {
	n := g.N()
	if cap(scr.labels) < n {
		scr.labels = make([]int32, n)
	}
	labels = scr.labels[:n]
	scr.labels = labels
	for i := range labels {
		labels[i] = -1
	}
	sizes = scr.sizes[:0]
	stack := scr.stack[:0]
	for s := 0; s < n; s++ {
		if inU[s] || labels[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		stack = append(stack[:0], s)
		count := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, w := range g.Neighbors(u) {
				if !inU[w] && labels[w] < 0 {
					labels[w] = id
					stack = append(stack, int(w))
				}
			}
		}
		sizes = append(sizes, count)
	}
	scr.sizes = sizes
	scr.stack = stack[:0]
	return labels, sizes
}

// CompactifyScratch implements Lemma 3.3: given a connected S ⊂ V with
// |S| < n/2, it returns a compact set K_G(S) whose edge-expansion
// quotient is at most S's. The returned set is S itself when S is
// already compact. It runs on caller-owned scratch; the returned set
// aliases scr.out and is invalidated by the next call on the same
// scratch.
func CompactifyScratch(g *graph.Graph, set []int, scr *Scratch) []int {
	n := g.N()
	inU := scr.growMask(n)
	for _, v := range set {
		inU[v] = true
	}
	labels, sizes := complementComponentsScratch(g, inU, scr)
	if len(sizes) <= 1 {
		scr.out = append(scr.out[:0], set...) // already compact
		return scr.out
	}
	// Case 1: some complement component C has |C| ≥ n/2 → K = G ∖ C.
	for id, sz := range sizes {
		if 2*sz >= n {
			out := scr.out[:0]
			for v := 0; v < n; v++ {
				if inU[v] || labels[v] != int32(id) {
					out = append(out, v)
				}
			}
			scr.out = out
			return out
		}
	}
	// Case 2: all components are small; one of them has edge-expansion
	// quotient ≤ S's (Lemma 3.3 proves at least one must). Return the
	// minimum-quotient component.
	best := -1
	bestQ := 0.0
	for id := range sizes {
		comp := scr.comp[:0]
		for v := 0; v < n; v++ {
			if labels[v] == int32(id) {
				comp = append(comp, v)
			}
		}
		scr.comp = comp
		// cut(C)/|C| — the same value Evaluate's EdgeAlpha reports.
		_, cut := expansion.CountsScratch(g, comp, &scr.eval)
		q := float64(cut) / float64(len(comp))
		if best < 0 || q < bestQ {
			best = id
			bestQ = q
		}
	}
	out := scr.out[:0]
	for v := 0; v < n; v++ {
		if labels[v] == int32(best) {
			out = append(out, v)
		}
	}
	scr.out = out
	return out
}
