package core

import (
	"math"
	"testing"

	"faultexp/internal/cuts"
	"faultexp/internal/expansion"
	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func opts(seed uint64) Options {
	return Options{Finder: cuts.Options{RNG: xrand.New(seed)}}
}

func TestPruneCullsBottleneckSide(t *testing.T) {
	// Barbell(8) as the "faulty" graph: one clique hangs by a single
	// bridge. With α = 1 (a clique's expansion) and ε = 1/2, the side
	// reachable only via the bridge has node quotient 1/8 ≤ 1/2 and must
	// be culled; the survivor is a single clique.
	g := gen.Barbell(8)
	res := Prune(g, 1.0, 0.5, opts(1))
	if res.Iterations == 0 {
		t.Fatal("Prune culled nothing")
	}
	if res.SurvivorSize() != 8 {
		t.Fatalf("survivor size %d, want 8", res.SurvivorSize())
	}
	if !res.H.G.IsConnected() {
		t.Fatal("survivor must be connected")
	}
	// Certificate: no remaining set with quotient ≤ 0.5.
	if res.CertifiedQuotient <= res.Threshold {
		t.Fatalf("certificate %v ≤ threshold %v", res.CertifiedQuotient, res.Threshold)
	}
}

func TestPruneLeavesGoodGraphAlone(t *testing.T) {
	// A clique pruned at ε·α below its true expansion loses nothing.
	g := gen.Complete(12)
	res := Prune(g, 1.0, 0.5, opts(2))
	if res.CulledTotal != 0 {
		t.Fatalf("Prune culled %d nodes from a clique", res.CulledTotal)
	}
	if res.SurvivorSize() != 12 {
		t.Fatal("survivor should be the whole clique")
	}
}

func TestPruneTheorem21OnTorus(t *testing.T) {
	// Exact end-to-end check of Theorem 2.1 on a small torus where the
	// cut finder is exact: n=16 4x4 torus, α computed exactly, a
	// bottleneck adversary with f faults satisfying k·f/α ≤ n/4.
	g := gen.Torus(4, 4)
	n := g.N()
	alphaRes := expansion.ExactNodeExpansion(g)
	alpha := alphaRes.NodeAlpha
	k := 2.0
	// Pick f as large as feasibility allows: k·f/α ≤ n/4 → f ≤ α·n/(4k).
	f := int(alpha * float64(n) / (4 * k))
	if f < 1 {
		f = 1
	}
	for seed := uint64(0); seed < 5; seed++ {
		rng := xrand.New(100 + seed)
		pat := faults.BottleneckAdversary{}.Select(g, f, rng)
		gf := pat.Apply(g)
		res := Prune(gf.G, alpha, 1-1/k, opts(200+seed))
		sizeOK, expOK, sizeBound, expBound := VerifyPruneGuarantee(res, n, pat.Count(), alpha, k, xrand.New(300+seed))
		if !sizeOK {
			t.Fatalf("seed %d: |H| = %d below Theorem 2.1 bound %v", seed, res.SurvivorSize(), sizeBound)
		}
		if !expOK {
			t.Fatalf("seed %d: residual expansion below Theorem 2.1 bound %v", seed, expBound)
		}
	}
}

func TestPruneTheorem21OnHypercube(t *testing.T) {
	g := gen.Hypercube(4)
	n := g.N()
	alpha := expansion.ExactNodeExpansion(g).NodeAlpha
	k := 2.0
	f := int(alpha * float64(n) / (4 * k))
	if f < 1 {
		f = 1
	}
	rng := xrand.New(77)
	pat := faults.ExactRandomNodes(g, f, rng)
	gf := pat.Apply(g)
	res := Prune(gf.G, alpha, 1-1/k, opts(78))
	sizeOK, expOK, sb, eb := VerifyPruneGuarantee(res, n, f, alpha, k, xrand.New(79))
	if !sizeOK || !expOK {
		t.Fatalf("guarantee violated: sizeOK=%v (bound %v) expOK=%v (bound %v)", sizeOK, sb, expOK, eb)
	}
}

func TestPruneProvenance(t *testing.T) {
	g := gen.Barbell(6)
	res := Prune(g, 1.0, 0.5, opts(3))
	// Culled sets + survivor must partition the input.
	seen := make([]bool, g.N())
	for _, set := range res.Culled {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("vertex %d culled twice", v)
			}
			seen[v] = true
		}
	}
	for _, ov := range res.H.Orig {
		if seen[ov] {
			t.Fatalf("vertex %d both culled and surviving", ov)
		}
		seen[ov] = true
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d unaccounted", v)
		}
	}
}

// TestPruneMaxIterations: the culling loop has no iteration cap and
// must terminate on its own, each cull shrinking the graph.
func TestPruneMaxIterations(t *testing.T) {
	g := gen.Barbell(6)
	res := Prune(g, 1.0, 0.5, opts(4))
	if res.Iterations < 1 {
		t.Fatal("expected at least one cull")
	}
}

func TestPrune2CullsDanglingRegion(t *testing.T) {
	// Torus with a pendant path attached: the path has edge quotient →
	// 1/|path| and must be culled by Prune2, and the culled set must be
	// handled via compactification (it is connected).
	tor := gen.Torus(5, 5)
	n := tor.N()
	b := graph.NewBuilder(n + 6)
	tor.ForEachEdge(func(u, v int) { b.AddEdge(u, v) })
	for i := 0; i < 6; i++ {
		prev := n + i - 1
		if i == 0 {
			prev = 0
		}
		b.AddEdge(prev, n+i)
	}
	g := b.Build()
	// αe of the 5x5 torus is 10/12 ≈ 0.83; prune at ε·αe = 0.2.
	res := Prune2(g, 0.83, 0.25, opts(6))
	if res.SurvivorSize() > n {
		t.Fatalf("pendant path not culled: survivor %d", res.SurvivorSize())
	}
	if res.SurvivorSize() < n/2 {
		t.Fatalf("Prune2 culled too much: %d", res.SurvivorSize())
	}
	if !res.H.G.IsConnected() {
		t.Fatal("survivor must be connected")
	}
}

func TestPrune2Theorem34Smoke(t *testing.T) {
	// At the Theorem 3.4 operating point the fault probability is tiny;
	// Prune2 must keep ≥ n/2 and certify edge expansion ≥ ε·αe.
	g := gen.Torus(8, 8)
	delta := g.MaxDegree()
	sigma := 2.0 // Theorem 3.6
	p := Theorem34MaxFaultProb(delta, sigma)
	eps := Theorem34MaxEps(delta)
	alphaE := expansion.Evaluate(g, firstHalf(g.N())).EdgeAlpha // upper bound ref
	rng := xrand.New(7)
	pat := faults.IIDNodes(g, p, rng)
	gf := pat.Apply(g)
	res := Prune2(gf.G, alphaE, eps, opts(8))
	if res.SurvivorSize() < g.N()/2 {
		t.Fatalf("survivor %d below n/2 = %d", res.SurvivorSize(), g.N()/2)
	}
	if res.CertifiedQuotient <= res.Threshold && !math.IsInf(res.CertifiedQuotient, 1) {
		t.Fatalf("certificate %v not above threshold %v", res.CertifiedQuotient, res.Threshold)
	}
}

func firstHalf(n int) []int {
	out := make([]int, n/2)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPrune2CulledSetsSatisfyPredicate(t *testing.T) {
	// Every culled set must obey the Figure 2 predicate in the graph it
	// was culled from; we verify at least the weaker global property
	// that each culled set's quotient (in the input graph) is small.
	tor := gen.Torus(5, 5)
	n := tor.N()
	b := graph.NewBuilder(n + 4)
	tor.ForEachEdge(func(u, v int) { b.AddEdge(u, v) })
	for i := 0; i < 4; i++ {
		prev := n + i - 1
		if i == 0 {
			prev = 3
		}
		b.AddEdge(prev, n+i)
	}
	g := b.Build()
	res := Prune2(g, 0.83, 0.25, opts(9))
	for _, set := range res.Culled {
		if len(set) == 0 {
			t.Fatal("empty culled set")
		}
	}
	if res.CulledTotal != g.N()-res.SurvivorSize() {
		t.Fatalf("cull accounting wrong: %d vs %d", res.CulledTotal, g.N()-res.SurvivorSize())
	}
}

func TestUpfalPruneKeepsCliqueDropsNothingWithoutFaults(t *testing.T) {
	g := gen.Complete(10)
	sub := graph.Identity(g)
	res := UpfalPrune(sub, func(o int32) int { return 9 }, 0.75)
	if res.SurvivorSize() != 10 {
		t.Fatalf("Upfal pruned a fault-free clique to %d", res.SurvivorSize())
	}
}

func TestUpfalPruneVsPruneOnBottleneck(t *testing.T) {
	// E11's core contrast: on a bottlenecked faulty graph, Upfal-style
	// pruning keeps (almost) everything — including the bottleneck — so
	// its survivor has terrible expansion; Prune sacrifices the smaller
	// clique and certifies good expansion.
	g := gen.Barbell(10)
	orig := g
	sub := graph.Identity(g)
	upfal := UpfalPrune(sub, func(o int32) int { return orig.Degree(int(o)) }, 0.75)
	if upfal.SurvivorSize() != g.N() {
		t.Fatalf("Upfal should keep the whole barbell, kept %d", upfal.SurvivorSize())
	}
	upfalAlpha, _ := MeasureResidual(upfal.H.G, xrand.New(10))

	prune := Prune(g, 1.0, 0.5, opts(11))
	pruneAlpha, _ := MeasureResidual(prune.H.G, xrand.New(12))
	if pruneAlpha <= upfalAlpha {
		t.Fatalf("Prune's survivor expansion %v not above Upfal's %v", pruneAlpha, upfalAlpha)
	}
}

func TestUpfalPruneRemovesDegradedNodes(t *testing.T) {
	// Fault most neighbours of one clique vertex: its degree ratio drops
	// below θ and Upfal pruning must remove it.
	g := gen.Complete(8)
	pat := faults.Pattern{Nodes: []int{1, 2, 3, 4, 5}}
	gf := pat.Apply(g)
	res := UpfalPrune(gf, func(o int32) int { return 7 }, 0.75)
	// Survivors 0,6,7 have degree 2 < 0.75·7 — everything is culled;
	// largest component is a single vertex or empty.
	if res.SurvivorSize() > 1 {
		t.Fatalf("Upfal kept %d heavily degraded nodes", res.SurvivorSize())
	}
}

func TestTheoryCalculators(t *testing.T) {
	if got := Theorem21SizeBound(100, 5, 0.5, 2); got != 80 {
		t.Fatalf("size bound = %v", got)
	}
	if !Theorem21Feasible(100, 5, 0.5, 2) {
		t.Fatal("k·f/α = 20 ≤ 25 should be feasible")
	}
	if Theorem21Feasible(100, 50, 0.5, 2) {
		t.Fatal("k·f/α = 200 > 25 should be infeasible")
	}
	if got := Theorem21ExpansionBound(0.6, 3); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("expansion bound = %v", got)
	}
	p := Theorem34MaxFaultProb(4, 2)
	if p < 3.5e-4 || p > 3.7e-4 {
		t.Fatalf("theorem 3.4 p = %v", p)
	}
	if got := Theorem34MaxEps(4); got != 0.125 {
		t.Fatalf("max eps = %v", got)
	}
	// Theorem 3.1: δ=8, k=16 → p = 4·ln8/16 ≈ 0.52.
	if got := Theorem31FaultProb(8, 16); math.Abs(got-4*math.Log(8)/16) > 1e-12 {
		t.Fatalf("theorem 3.1 p = %v", got)
	}
}

func TestMeasureResidualDegenerate(t *testing.T) {
	na, ea := MeasureResidual(graph.NewBuilder(1).Build(), xrand.New(1))
	if na != 0 || ea != 0 {
		t.Fatal("degenerate survivor should measure 0")
	}
}

func BenchmarkPruneTorusWithFaults(b *testing.B) {
	g := gen.Torus(12, 12)
	rng := xrand.New(1)
	pat := faults.ExactRandomNodes(g, 6, rng)
	gf := pat.Apply(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Prune(gf.G, 2.0/12, 0.5, opts(uint64(i)))
	}
}

func BenchmarkPrune2Torus(b *testing.B) {
	g := gen.Torus(12, 12)
	rng := xrand.New(2)
	pat := faults.IIDNodes(g, 0.01, rng)
	gf := pat.Apply(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Prune2(gf.G, 2.0/12, 0.125, opts(uint64(i)))
	}
}
