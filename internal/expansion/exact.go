package expansion

// Exact global expansion minimisation by subset dynamic programming.
// For every subset S of [0, n) in increasing mask order, the DP derives
// the neighbourhood mask (for node expansion) or the cut size (for edge
// expansion) of S from S minus its lowest bit in O(1) — a total of
// O(2^n) work, practical to n ≈ 22. This provides ground truth for the
// heuristic finders and for certifying Prune's behaviour on small
// networks.

import (
	"fmt"
	"math/bits"

	"faultexp/internal/graph"
)

// MaxExactN is the largest vertex count accepted by the exact routines;
// beyond it the subset tables would exceed memory.
const MaxExactN = 22

// ExactMin is the one exact subset DP. It returns the subset U with
// 1 ≤ |U| ≤ maxSize that minimises |Γ(U)|/|U|, or cut(U)/|U| when edge
// is set, restricted to connected U when connected is set; ties go to
// the first subset in increasing mask order. ok is false when no subset
// qualifies (n == 0 or maxSize < 1). Panics if n > MaxExactN.
func ExactMin(g *graph.Graph, maxSize int, edge, connected bool) (r Result, ok bool) {
	n := g.N()
	if n > MaxExactN {
		panic(fmt.Sprintf("expansion: exact DP limited to n ≤ %d, got %d", MaxExactN, n))
	}
	if n == 0 || maxSize < 1 {
		return Result{}, false
	}
	masks := NeighborMasks(g)
	size := 1 << uint(n)
	// tab[s] is s's neighbourhood mask (node) or its cut size (edge).
	tab := make([]uint32, size)
	bestNum, bestDen := -1, 1 // best ratio as fraction bestNum/bestDen
	bestMask := uint32(0)
	for s := 1; s < size; s++ {
		v := bits.TrailingZeros32(uint32(s))
		prev := s & (s - 1)
		if edge {
			// Adding v: gains deg(v) boundary edges minus 2 per
			// neighbour already inside.
			inside := bits.OnesCount32(masks[v] & uint32(prev))
			tab[s] = tab[prev] + uint32(g.Degree(v)) - 2*uint32(inside)
		} else {
			tab[s] = tab[prev] | masks[v]
		}
		pc := bits.OnesCount32(uint32(s))
		if pc > maxSize || connected && !MaskConnected(uint32(s), masks) {
			continue
		}
		q := int(tab[s])
		if !edge {
			q = bits.OnesCount32(tab[s] &^ uint32(s))
		}
		// compare q/pc < bestNum/bestDen via cross-multiplication
		if bestNum < 0 || q*bestDen < bestNum*pc {
			bestNum, bestDen = q, pc
			bestMask = uint32(s)
		}
	}
	if bestNum < 0 {
		return Result{}, false
	}
	return Evaluate(g, maskToSet(bestMask, n)), true
}

// ExactNodeExpansion computes the node expansion α = min over nonempty
// U with |U| ≤ n/2 of |Γ(U)|/|U|, with an optimal witness. Panics if
// n > MaxExactN or n < 2.
func ExactNodeExpansion(g *graph.Graph) Result {
	return exactExpansion(g, false)
}

// ExactEdgeExpansion computes αe = min over U (both sides nonempty) of
// cut(U)/min(|U|,|V\U|), with an optimal witness (returned as the small
// side). Panics if n > MaxExactN or n < 2.
func ExactEdgeExpansion(g *graph.Graph) Result {
	return exactExpansion(g, true)
}

func exactExpansion(g *graph.Graph, edge bool) Result {
	if g.N() < 2 {
		panic("expansion: graph too small for expansion")
	}
	r, _ := ExactMin(g, g.N()/2, edge, false)
	return r
}

// ExactMinNodeQuotientBelow searches for any subset U with |U| ≤ maxSize
// and |Γ(U)|/|U| ≤ threshold, returning the *minimum-quotient* such set
// if one exists. Used by Prune's exact mode.
func ExactMinNodeQuotientBelow(g *graph.Graph, maxSize int, threshold float64) (Result, bool) {
	r, ok := ExactMin(g, maxSize, false, false)
	return r, ok && r.NodeAlpha <= threshold
}

// ExactMinEdgeQuotientBelow searches for any subset U with |U| ≤ maxSize
// and cut(U)/|U| ≤ threshold, returning the minimum-quotient such set if
// one exists.
func ExactMinEdgeQuotientBelow(g *graph.Graph, maxSize int, threshold float64) (Result, bool) {
	r, ok := ExactMin(g, maxSize, true, false)
	return r, ok && r.EdgeAlpha <= threshold
}

// ExactMinConnectedEdgeQuotientBelow searches for a *connected* subset U
// with |U| ≤ maxSize and cut(U)/|U| ≤ threshold (Prune2's predicate),
// returning the minimum-quotient connected set if below threshold.
func ExactMinConnectedEdgeQuotientBelow(g *graph.Graph, maxSize int, threshold float64) (Result, bool) {
	r, ok := ExactMin(g, maxSize, true, true)
	return r, ok && r.EdgeAlpha <= threshold
}

// MaskConnected reports whether the vertices of mask induce a connected
// subgraph, by BFS over bitmasks (nbrMasks from NeighborMasks). The
// empty mask is not connected.
func MaskConnected(mask uint32, nbrMasks []uint32) bool {
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

// NeighborMasks returns each vertex's neighbourhood as a bitmask, for
// graphs of at most 32 vertices.
func NeighborMasks(g *graph.Graph) []uint32 {
	n := g.N()
	masks := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			masks[v] |= 1 << uint(w)
		}
	}
	return masks
}

func maskToSet(mask uint32, n int) []int {
	var out []int
	for v := 0; v < n; v++ {
		if mask&(1<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}
