package spectral

import (
	"math"
	"slices"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// TestFiedlerSweepCheeger checks the Fiedler vector against Cheeger's
// inequality, which holds for any vector, not only an exact
// eigenvector: for x ⊥ D·1 with Rayleigh quotient
// R = Σ_{uv∈E} (x_u − x_v)² / Σ_v d_v·x_v², some level set of x has
// conductance at most √(2R). On every scratchCorpus graph, the sweep
// written here over the returned vector's level sets meets that bound,
// and R matches λ̂₂, so a vector worse than its value would fail.
func TestFiedlerSweepCheeger(t *testing.T) {
	var scr Scratch
	for i, g := range scratchCorpus() {
		res := FiedlerScratch(g, 0, xrand.New(uint64(100+i)), &scr)
		x := res.Vector
		num, den, dx := 0.0, 0.0, 0.0
		g.ForEachEdge(func(u, v int) {
			num += (x[u] - x[v]) * (x[u] - x[v])
		})
		for v := range x {
			d := float64(g.Degree(v))
			den += d * x[v] * x[v]
			dx += d * x[v]
		}
		r := num / den
		if math.Abs(dx)/math.Sqrt(den*float64(2*g.M())) > 1e-9 {
			t.Errorf("graph %d (n=%d): vector not orthogonal to D·1 (Σ d·x = %v)", i, g.N(), dx)
		}
		if math.Abs(r-res.Lambda2) > 1e-9 {
			t.Errorf("graph %d (n=%d): Rayleigh quotient %v, λ̂₂ %v", i, g.N(), r, res.Lambda2)
		}
		if best := sweepConductance(g, x); best > math.Sqrt(2*r)+1e-9 {
			t.Errorf("graph %d (n=%d): best level set has conductance %v > √(2R) = %v", i, g.N(), best, math.Sqrt(2*r))
		}
	}
}

// sweepConductance returns the least conductance cut(S)/min(vol S,
// vol S̄) over the proper prefixes S of the vertices sorted by x, which
// include every level set {v : x_v ≤ t}.
func sweepConductance(g *graph.Graph, x []float64) float64 {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if x[a] < x[b] {
			return -1
		}
		if x[a] > x[b] {
			return 1
		}
		return 0
	})
	in := make([]bool, n)
	vol := 2 * g.M()
	cut, volS, best := 0, 0, math.Inf(1)
	for _, v := range order[:n-1] {
		in[v] = true
		volS += g.Degree(v)
		for _, w := range g.Neighbors(v) {
			if in[w] {
				cut--
			} else {
				cut++
			}
		}
		if minVol := min(volS, vol-volS); minVol > 0 {
			best = math.Min(best, float64(cut)/float64(minVol))
		}
	}
	return best
}

// TestLambda2CheegerLowerBound checks Cheeger's lower bound on small
// graphs: λ₂/2 ≤ h(G), the least conductance over all vertex sets, found
// by brute force. Since λ̂₂ ≥ λ₂, the check λ̂₂/2 ≤ h(G) fails for a λ̂₂
// that overshoots λ₂ by more than the bound's own slack.
func TestLambda2CheegerLowerBound(t *testing.T) {
	rng := xrand.New(17)
	graphs := []*graph.Graph{
		gen.Cycle(12), gen.Path(10), gen.Complete(8), gen.Hypercube(4), gen.Torus(3, 5),
		gen.Mesh(4, 4), gen.Barbell(6), gen.Star(9), gen.ConnectedRandomRegular(14, 3, rng.Split()),
		gen.GabberGalil(3),
	}
	for _, g := range scratchCorpus() {
		if g.N() <= 16 {
			graphs = append(graphs, g)
		}
	}
	var scr Scratch
	for i, g := range graphs {
		n := g.N()
		l2 := FiedlerScratch(g, 0, xrand.New(uint64(500+i)), &scr).Lambda2
		mask := make([]bool, n)
		h := math.Inf(1)
		for s := 1; s < 1<<n-1; s++ {
			for v := range mask {
				mask[v] = s&(1<<v) != 0
			}
			h = math.Min(h, Conductance(g, mask))
		}
		if l2/2 > h+1e-12 {
			t.Errorf("graph %d (n=%d): λ̂₂/2 = %v exceeds the least conductance %v", i, n, l2/2, h)
		}
	}
}
