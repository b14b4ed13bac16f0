package faults

// The recursive separator adversary of Theorem 2.5: on a graph of
// uniform expansion α(·), repeatedly take the largest surviving
// fragment, find its minimum-expansion set U, and fail Γ(U) — splitting
// the fragment — until every fragment has fewer than ε·n vertices. The
// theorem shows this needs only O(log(1/ε)/ε · α(n) · n) faults, i.e.
// ω(α(n)·n) faults suffice to shatter *every* uniform-expansion graph.

import (
	"faultexp/internal/cuts"
	"faultexp/internal/expansion"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// SeparatorAttack runs the Theorem 2.5 process on g until every fragment
// is smaller than epsilon·n, and returns the faulted nodes (in g's
// coordinates) together with the final fragment sizes.
func SeparatorAttack(g *graph.Graph, epsilon float64, rng *xrand.RNG) (Pattern, []int) {
	n := g.N()
	limit := int(epsilon * float64(n))
	if limit < 1 {
		limit = 1
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	var faulted []int
	// Fragments are vertex lists in g's coordinates.
	fragments := appendComponents(nil, g, nil, &sc.gw)
	opt := cuts.Options{RNG: rng}
	for {
		// Pick the largest fragment.
		bi := -1
		for i, fr := range fragments {
			if bi < 0 || len(fr) > len(fragments[bi]) {
				bi = i
			}
		}
		if bi < 0 || len(fragments[bi]) < limit {
			break
		}
		frag := fragments[bi]
		fragments = append(fragments[:bi], fragments[bi+1:]...)
		sub := g.InduceInto(&sc.gw, sc.gw.SetMask(n, frag))
		if sub.G.N() < 2 {
			continue
		}
		// Minimum node-expansion set of the fragment, |U| ≤ |frag|/2.
		best, ok := cuts.FindBestWs(sub.G, cuts.NodeMode, sub.G.N()/2, false, opt, &sc.finder)
		if !ok {
			continue
		}
		boundary := expansion.Boundary(sub.G, expansion.Mask(sub.G.N(), best.Set))
		// Fault the boundary (in g coordinates), then split the rest of
		// the fragment into components: g's, under the fragment minus
		// its boundary.
		keep := sc.gw.SetMask(n, frag)
		for _, b := range boundary {
			v := int(sub.Orig[b])
			faulted = append(faulted, v)
			keep[v] = false
		}
		fragments = appendComponents(fragments, g, keep, &sc.gw)
	}
	sizes := make([]int, len(fragments))
	for i, fr := range fragments {
		sizes[i] = len(fr)
	}
	return NewPattern(faulted), sizes
}

// appendComponents appends g's components under keep (nil keeps every
// vertex) to fragments as ascending vertex lists, in ComponentsInto's
// order.
func appendComponents(fragments [][]int, g *graph.Graph, keep []bool, ws *graph.Workspace) [][]int {
	labels, sizes := g.ComponentsInto(ws, keep)
	comps := make([][]int, len(sizes))
	for i, size := range sizes {
		comps[i] = make([]int, 0, size)
	}
	for v, l := range labels {
		if l >= 0 {
			comps[l] = append(comps[l], v)
		}
	}
	return append(fragments, comps...)
}
