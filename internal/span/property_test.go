package span

// Property-based tests of span invariants on random connected graphs.

import (
	"testing"
	"testing/quick"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func randomConnectedGraph(n, extra int, rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// Property: the span of any connected graph is at least 1 — a tree
// spanning Γ(U) has at least |Γ(U)| nodes.
func TestQuickSpanAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(7)
		g := randomConnectedGraph(n, rng.Intn(2*n), rng)
		est := Exact(g)
		return est.Sets == 0 || est.Sigma >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampling never exceeds the exact span when all the Steiner
// trees involved are exact (small boundaries) — Sampled maximizes over a
// subset of the compact sets Exact maximizes over.
func TestQuickSampledAtMostExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(6)
		g := randomConnectedGraph(n, n, rng)
		exact := Exact(g)
		if !exact.Exact {
			return true // approximate trees void the comparison
		}
		sampled := Sampled(g, 25, rng.Split())
		return sampled.Sigma <= exact.Sigma+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the witness reported by Exact reproduces its ratio.
func TestQuickWitnessConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(6)
		g := randomConnectedGraph(n, rng.Intn(n), rng)
		est := Exact(g)
		if est.Sets == 0 || len(est.ArgSet) == 0 {
			return true
		}
		var ws Workspace
		r, tree, boundary, _ := ratioForWs(g, est.ArgSet, &ws)
		return r == est.Sigma && tree == est.TreeNodes && boundary == est.BoundaryNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: degenerate graphs.
func TestSpanDegenerate(t *testing.T) {
	if est := Sampled(graph.NewBuilder(2).Build(), 10, xrand.New(1)); est.Sets != 0 {
		t.Fatal("sampling a 2-vertex edgeless graph should yield nothing")
	}
	single := graph.NewBuilder(1).Build()
	if est := Exact(single); est.Sets != 0 || est.Sigma != 0 {
		t.Fatalf("singleton span = %+v", est)
	}
}
