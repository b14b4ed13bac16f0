// Package steiner computes Steiner trees in unweighted graphs: the
// minimal tree P(U) spanning a compact set's boundary Γ(U) in the
// paper's span definition
//
//	σ = max_{U compact} |P(U)| / |Γ(U)|.
//
// Two algorithms are provided: the exact Dreyfus–Wagner dynamic program
// (exponential in the terminal count, used for ground-truth span values
// on small instances) and the classic metric-closure MST
// 2-approximation (used for sampling estimates on large instances, where
// it *overestimates* tree sizes and therefore overestimates per-set
// ratios).
//
// Both solvers live in scratch.go as scratch-threaded kernels
// (ExactTreeEdgesScratch, ApproxTreeScratch).
package steiner

// MaxExactTerminals bounds the Dreyfus–Wagner terminal count: the DP
// costs O(3^t·n + 2^t·n²), practical to t ≈ 12.
const MaxExactTerminals = 12

func trailingZeros(x int) int {
	c := 0
	for x&1 == 0 {
		x >>= 1
		c++
	}
	return c
}
