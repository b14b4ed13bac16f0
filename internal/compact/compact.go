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
	var scr Scratch
	inU := scr.ws.SetMask(n, set)
	if _, sizes := g.ComponentsInto(&scr.ws, inU); len(sizes) != 1 {
		return false
	}
	_, sizes := scr.complementComponents(g, inU)
	return len(sizes) == 1
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
	masks := expansion.NeighborMasks(g)
	fullMask := uint32(1<<uint(n)) - 1
	for s := uint32(1); s < fullMask; s++ {
		if !expansion.MaskConnected(s, masks) || !expansion.MaskConnected(fullMask&^s, masks) {
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

// Scratch is reusable per-worker scratch for CompactifyScratch and
// RandomScratch. The zero value is ready to use; buffers grow on demand
// and are retained across calls. Sets returned by the scratch entry
// points alias scr.out and are valid only until the next call on the
// same scratch. Not safe for concurrent use.
type Scratch struct {
	ws       graph.Workspace // the set mask and component labels
	frontier []int
	comp     []int
	out      []int
	set      expansion.Tracker
}

// complementComponents labels the components of g minus U, where inU
// marks U: it flips inU in place into the complement's keep mask, so
// U's members get label -1.
func (scr *Scratch) complementComponents(g *graph.Graph, inU []bool) ([]int32, []int) {
	for v, in := range inU {
		inU[v] = !in
	}
	return g.ComponentsInto(&scr.ws, inU)
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
	if _, sizes := g.ComponentsInto(&scr.ws, nil); len(sizes) != 1 {
		return nil
	}
	inU := scr.ws.SetMask(n, nil)
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
	// Absorb all complement components except the largest: the result
	// is every vertex outside it.
	labels, sizes := scr.complementComponents(g, inU)
	largest := 0
	for i, s := range sizes {
		if s > sizes[largest] {
			largest = i
		}
	}
	out := scr.out[:0]
	for v, l := range labels {
		if l != int32(largest) {
			out = append(out, v)
		}
	}
	scr.out = out
	return out
}

// CompactifyScratch implements Lemma 3.3: given a connected S ⊂ V with
// |S| < n/2, it returns a compact set K_G(S) whose edge-expansion
// quotient is at most S's. The returned set is S itself when S is
// already compact. It runs on caller-owned scratch; the returned set
// aliases scr.out and is invalidated by the next call on the same
// scratch.
func CompactifyScratch(g *graph.Graph, set []int, scr *Scratch) []int {
	n := g.N()
	labels, sizes := scr.complementComponents(g, scr.ws.SetMask(n, set))
	if len(sizes) <= 1 {
		scr.out = append(scr.out[:0], set...) // already compact
		return scr.out
	}
	// Case 1: some complement component C has |C| ≥ n/2 → K = G ∖ C
	// (S's members carry label -1, so they stay in K).
	for id, sz := range sizes {
		if 2*sz >= n {
			out := scr.out[:0]
			for v, l := range labels {
				if l != int32(id) {
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
		scr.set.Reset(g, comp)
		q := float64(scr.set.Cut()) / float64(len(comp))
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
