// Package span computes the paper's new random-fault parameter, the span
// (§1.4, equation (1)):
//
//	σ = max over compact U of |P(U)| / |Γ(U)|
//
// where P(U) is a smallest tree in G connecting every node of the
// boundary Γ(U), and |P(U)| counts the tree's nodes. The span controls
// random-fault tolerance (Theorem 3.4: fault probability up to
// ≈ 1/(2e·δ⁴σ) preserves a Θ(n)-sized component with Θ(αe) edge
// expansion), which plain expansion cannot (Theorem 3.1).
//
// Exact span enumeration is exponential, so the package offers: exact
// computation for small graphs (compact-set enumeration + Dreyfus–Wagner
// Steiner trees), sampled estimation for large graphs, and — for
// d-dimensional meshes — the constructive Theorem 3.6 certificate: every
// compact boundary can be spanned by a tree with at most 2(|B|−1) edges
// built from the virtual-edge graph (B, Ev) of Lemma 3.7, certifying
// σ ≤ 2 without any search.
package span

import (
	"faultexp/internal/compact"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Estimate is the result of a span computation.
type Estimate struct {
	Sigma float64 // max |P(U)|/|Γ(U)| over the sets examined
	// Exact is true when every compact set was enumerated AND every
	// Steiner tree was computed exactly — i.e. Sigma is the true span.
	Exact bool
	// Sets is the number of compact sets examined.
	Sets int
	// ArgSet is a witness achieving Sigma.
	ArgSet []int
	// TreeNodes and BoundaryNodes describe the witness: |P(U)| and |Γ(U)|.
	TreeNodes     int
	BoundaryNodes int
}

// Exact computes the true span of a small connected graph by exhaustive
// compact-set enumeration. The Exact flag in the result is false if any
// boundary exceeded the exact-Steiner terminal budget (Sigma is then an
// upper estimate for those sets). Panics if g.N() > compact.MaxEnumN.
func Exact(g *graph.Graph) Estimate {
	var ws Workspace
	est := Estimate{Exact: true}
	compact.Enumerate(g, func(set []int) bool {
		r, tree, b, exact := ratioForWs(g, set, &ws)
		est.Sets++
		if !exact {
			est.Exact = false
		}
		if r > est.Sigma {
			est.Sigma = r
			est.ArgSet = append([]int(nil), set...)
			est.TreeNodes = tree
			est.BoundaryNodes = b
		}
		return true
	})
	return est
}

// Sampled estimates the span of a large graph by sampling random compact
// sets across a spread of sizes. The result is a *lower* estimate of σ
// when trees are exact (a max over a subset of compact sets); approximate
// trees can push individual ratios above their true value, so the result
// is reported with Exact=false. It is a thin wrapper over SampledWs on a
// throwaway workspace, so the returned ArgSet is uniquely owned.
func Sampled(g *graph.Graph, samples int, rng *xrand.RNG) Estimate {
	var ws Workspace
	return SampledWs(g, samples, rng, &ws)
}

// FaultToleranceFromSpan returns the Theorem 3.4 fault-probability
// threshold p ≤ 1/(2e·δ⁴σ) implied by a maximum degree δ and span σ.
func FaultToleranceFromSpan(delta int, sigma float64) float64 {
	const e = 2.718281828459045
	d := float64(delta)
	return 1 / (2 * e * d * d * d * d * sigma)
}
