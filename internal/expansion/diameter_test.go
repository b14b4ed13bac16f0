package expansion

import (
	"testing"
	"testing/quick"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func TestExactDiameterKnown(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{gen.Path(6), 5},
		{gen.Cycle(8), 4},
		{gen.Complete(5), 1},
		{gen.Hypercube(4), 4},
		{gen.Mesh(3, 4), 5},
		{gen.Torus(4, 4), 4},
	}
	for i, c := range cases {
		if got := ExactDiameter(c.g); got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
}

func TestExactDiameterDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}})
	if got := ExactDiameter(g); got != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", got)
	}
	if ExactDiameter(graph.NewBuilder(1).Build()) != 0 {
		t.Fatal("singleton diameter should be 0")
	}
}

// TestExactDiameterOneWorkspace pins ExactDiameter's allocations: its
// n = 400 sources share one workspace, so the count stays far below one
// per source.
func TestExactDiameterOneWorkspace(t *testing.T) {
	g := gen.Torus(20, 20)
	allocs := testing.AllocsPerRun(5, func() {
		if d := ExactDiameter(g); d != 20 {
			t.Fatalf("diameter = %d, want 20", d)
		}
	})
	if allocs > 32 {
		t.Errorf("ExactDiameter allocates %.0f times per call, want ≤ 32 (one workspace, not one per source)", allocs)
	}
}

func TestDiameterUpperBoundKnownFamilies(t *testing.T) {
	// The bound must hold with the *exact* expansion on exactly-solvable
	// families.
	cases := []*graph.Graph{
		gen.Cycle(16),
		gen.Complete(8),
		gen.Hypercube(4),
		gen.Torus(4, 4),
		gen.Mesh(4, 4),
	}
	for i, g := range cases {
		alpha := ExactNodeExpansion(g).NodeAlpha
		diam := ExactDiameter(g)
		bound := DiameterUpperBound(alpha, g.N())
		if diam > bound {
			t.Errorf("case %d: diameter %d exceeds bound %d (α=%v)", i, diam, bound, alpha)
		}
	}
}

func TestDiameterUpperBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha ≤ 0 should panic")
		}
	}()
	DiameterUpperBound(0, 10)
}

// Property: on random connected graphs, the ball-growth bound computed
// from the exact expansion always dominates the exact diameter.
func TestQuickDiameterBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(10)
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdge(perm[i], perm[rng.Intn(i)])
		}
		for i := 0; i < rng.Intn(2*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		alpha := ExactNodeExpansion(g).NodeAlpha
		if alpha <= 0 {
			return true
		}
		return ExactDiameter(g) <= DiameterUpperBound(alpha, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactDiameter(b *testing.B) {
	g := gen.Torus(24, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExactDiameter(g)
	}
}
