// Package expansion implements the paper's two central quantities:
//
//	node expansion  α(U)  = |Γ(U)| / |U|          (§1.3, adversarial faults)
//	edge expansion  αe(U) = |(U, V\U)| / min(|U|, |V\U|)   (random faults)
//
// together with the boundary operators Γ (node neighbourhood) and Γe
// (edge boundary), exact global minimisation by subset dynamic
// programming for small graphs, and heuristic estimation (spectral sweep
// + local search + BFS balls, via package cuts) for everything larger.
package expansion

import (
	"faultexp/internal/graph"
)

// Boundary returns Γ(U): the vertices outside U adjacent to U. The
// inU mask must have length g.N().
func Boundary(g *graph.Graph, inU []bool) []int {
	seen := make([]bool, g.N())
	var out []int
	for v := 0; v < g.N(); v++ {
		if !inU[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !inU[w] && !seen[w] {
				seen[w] = true
				out = append(out, int(w))
			}
		}
	}
	return out
}

// BoundarySize returns |Γ(U)| without materializing the boundary.
func BoundarySize(g *graph.Graph, inU []bool) int {
	seen := make([]bool, g.N())
	count := 0
	for v := 0; v < g.N(); v++ {
		if !inU[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !inU[w] && !seen[w] {
				seen[w] = true
				count++
			}
		}
	}
	return count
}

// EdgeBoundarySize returns |(U, V\U)|: the number of edges with exactly
// one endpoint in U.
func EdgeBoundarySize(g *graph.Graph, inU []bool) int {
	count := 0
	for v := 0; v < g.N(); v++ {
		if !inU[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !inU[w] {
				count++
			}
		}
	}
	return count
}

// Mask converts a vertex list into a boolean membership mask.
func Mask(n int, vs []int) []bool {
	m := make([]bool, n)
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// NodeExpansionOf returns α(U) = |Γ(U)|/|U|. It panics on an empty U.
func NodeExpansionOf(g *graph.Graph, inU []bool) float64 {
	size := 0
	for _, b := range inU {
		if b {
			size++
		}
	}
	if size == 0 {
		panic("expansion: empty set")
	}
	return float64(BoundarySize(g, inU)) / float64(size)
}

// Result describes a located cut: the witness set, its size, and its
// expansion values.
type Result struct {
	Set       []int   // witness set U (vertex ids)
	Size      int     // |U|
	NodeAlpha float64 // |Γ(U)|/|U|
	EdgeAlpha float64 // cut(U)/|U| (U is always the small side)
	Boundary  int     // |Γ(U)|
	CutEdges  int     // |(U, V\U)|
}

// Evaluate fills in a Result for the given witness set.
func Evaluate(g *graph.Graph, set []int) Result {
	inU := Mask(g.N(), set)
	b := BoundarySize(g, inU)
	c := EdgeBoundarySize(g, inU)
	return Result{
		Set:       append([]int(nil), set...),
		Size:      len(set),
		NodeAlpha: float64(b) / float64(len(set)),
		EdgeAlpha: float64(c) / float64(len(set)),
		Boundary:  b,
		CutEdges:  c,
	}
}
