package expansion

// The expansion→distance connection the paper's conclusion leans on:
// "the distance of nodes in a graph of expansion α is O(α⁻¹·log n)
// [Leighton–Rao]". The elementary ball-growth form: any ball of size
// ≤ n/2 has |Γ(B)| ≥ α·|B|, so one more hop multiplies the ball by at
// least 1+α; after ⌈log_{1+α}(n/2)⌉ hops every ball exceeds n/2, and two
// majority balls intersect. Experiment E16 validates the bound across
// every family and on pruned survivors.

import (
	"math"

	"faultexp/internal/graph"
)

// DiameterUpperBound returns the ball-growth bound on the diameter of a
// connected graph with node expansion ≥ alpha:
//
//	diam ≤ 2·⌈log_{1+α}(n/2)⌉ + 1.
//
// It panics for alpha ≤ 0 (no growth guarantee) and returns 0 for n ≤ 1.
func DiameterUpperBound(alpha float64, n int) int {
	if alpha <= 0 {
		panic("expansion: DiameterUpperBound needs alpha > 0")
	}
	if n <= 1 {
		return 0
	}
	steps := math.Ceil(math.Log(float64(n)/2) / math.Log1p(alpha))
	if steps < 0 {
		steps = 0
	}
	return 2*int(steps) + 1
}

// ExactDiameter computes the exact diameter by all-source BFS — O(n·m),
// intended for the experiment sizes (n up to a few thousand). Every
// source runs on one workspace. Returns -1 for disconnected graphs and 0
// for graphs with fewer than 2 vertices.
func ExactDiameter(g *graph.Graph) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	ws := graph.NewWorkspace()
	diam := 0
	for v := 0; v < n; v++ {
		for _, d := range g.BFSDistancesInto(ws, v) {
			if d < 0 {
				return -1
			}
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}
