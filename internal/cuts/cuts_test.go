package cuts

import (
	"math"
	"testing"

	"faultexp/internal/expansion"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func opts(seed uint64) Options { return Options{RNG: xrand.New(seed)} }

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFindBestExactSmall(t *testing.T) {
	// Barbell(6): optimal edge cut is the bridge, quotient 1/6.
	g := gen.Barbell(6)
	r, ok := FindBest(g, EdgeMode, g.N()/2, false, opts(1))
	if !ok {
		t.Fatal("no cut found")
	}
	if !almost(r.EdgeAlpha, 1.0/6.0, 1e-12) {
		t.Fatalf("edge quotient = %v, want 1/6", r.EdgeAlpha)
	}
}

func TestFindBestNodeModeSmall(t *testing.T) {
	g := gen.Cycle(12)
	r, ok := FindBest(g, NodeMode, 6, false, opts(2))
	if !ok {
		t.Fatal("no cut found")
	}
	if !almost(r.NodeAlpha, 2.0/6.0, 1e-12) {
		t.Fatalf("node quotient = %v, want 1/3", r.NodeAlpha)
	}
}

func TestFindBestConnectedRequirement(t *testing.T) {
	g := gen.Barbell(6)
	r, ok := FindBest(g, EdgeMode, 6, true, opts(3))
	if !ok {
		t.Fatal("no connected cut found")
	}
	sub := g.InduceVertices(r.Set)
	if !sub.G.IsConnected() {
		t.Fatal("witness must be connected")
	}
	if !almost(r.EdgeAlpha, 1.0/6.0, 1e-12) {
		t.Fatalf("connected edge quotient = %v", r.EdgeAlpha)
	}
}

func TestHeuristicFindsPlantedBottleneckLarge(t *testing.T) {
	// Two 10x10 tori joined by a single edge: the heuristic (spectral
	// sweep) must find a cut with quotient ≤ a small value (the planted
	// cut has quotient 1/100).
	a := gen.Torus(10, 10)
	n := a.N()
	b := graph.NewBuilder(2 * n)
	a.ForEachEdge(func(u, v int) {
		b.AddEdge(u, v)
		b.AddEdge(n+u, n+v)
	})
	b.AddEdge(0, n)
	g := b.Build()

	r, ok := FindBest(g, EdgeMode, g.N()/2, false, opts(4))
	if !ok {
		t.Fatal("no cut found")
	}
	if r.EdgeAlpha > 0.05 {
		t.Fatalf("heuristic missed planted bottleneck: quotient %v", r.EdgeAlpha)
	}
}

func TestHeuristicMatchesExactOnMediumMesh(t *testing.T) {
	// 4x4 mesh is exactly solvable; run the heuristic path by forcing
	// ExactMaxN below n and compare within a small factor.
	g := gen.Mesh(4, 4)
	exact := expansion.ExactEdgeExpansion(g)
	o := opts(5)
	o.ExactMaxN = 4 // force heuristics
	r, ok := FindBest(g, EdgeMode, g.N()/2, false, o)
	if !ok {
		t.Fatal("no cut found")
	}
	if r.EdgeAlpha > exact.EdgeAlpha*1.5+1e-9 {
		t.Fatalf("heuristic %v vs exact %v", r.EdgeAlpha, exact.EdgeAlpha)
	}
}

func TestBallCandidatesConnected(t *testing.T) {
	g := gen.Torus(8, 8)
	ws := &Workspace{}
	f := finder{g: g, mode: NodeMode, maxSize: 20, ws: ws}
	seen := 0
	f.observe = func(set []int) {
		seen++
		if len(set) == 0 || len(set) > 20 {
			t.Fatalf("ball candidate size %d out of range", len(set))
		}
		if !g.InduceVertices(set).G.IsConnected() {
			t.Fatalf("ball candidate %v not connected", set)
		}
	}
	ballCandidates(g, 20, xrand.New(6), ws, &f)
	if seen == 0 {
		t.Fatal("ball sweep produced no candidates")
	}
}

func TestSweepCandidatesRespectMaxSize(t *testing.T) {
	g := gen.Torus(6, 6)
	ws := &Workspace{}
	f := finder{g: g, mode: EdgeMode, maxSize: 10, ws: ws}
	seen := 0
	f.observe = func(set []int) {
		seen++
		if len(set) > 10 {
			t.Fatalf("sweep candidate size %d exceeds bound", len(set))
		}
	}
	sweepCandidates(g, EdgeMode, 10, false, xrand.New(7), ws, &f)
	if seen == 0 {
		t.Fatal("spectral sweep produced no candidates")
	}
}

func TestLocalImproveNeverWorsens(t *testing.T) {
	g := gen.Torus(8, 8)
	rng := xrand.New(8)
	start := []int{0, 1, 2, 8, 9}
	before := expansion.Evaluate(g, start)
	improved := localImprove(g, start, EdgeMode, 32, 4, rng, &Workspace{})
	after := expansion.Evaluate(g, improved)
	if after.EdgeAlpha > before.EdgeAlpha+1e-12 {
		t.Fatalf("local search worsened quotient: %v -> %v", before.EdgeAlpha, after.EdgeAlpha)
	}
}

func TestEstimateMatchesExactSmall(t *testing.T) {
	g := gen.Cycle(14)
	rn, exactN := EstimateNodeExpansion(g, opts(9))
	if !exactN {
		t.Fatal("small graph should be solved exactly")
	}
	if !almost(rn.NodeAlpha, 2.0/7.0, 1e-12) {
		t.Fatalf("C14 α = %v, want 2/7", rn.NodeAlpha)
	}
	re, exactE := EstimateEdgeExpansion(g, opts(10))
	if !exactE || !almost(re.EdgeAlpha, 2.0/7.0, 1e-12) {
		t.Fatalf("C14 αe = %v (exact=%v), want 2/7", re.EdgeAlpha, exactE)
	}
}

func TestEstimateExpanderIsLarge(t *testing.T) {
	// Expander: estimated expansion must be bounded away from zero, and
	// far above an equal-sized cycle's.
	g := gen.GabberGalil(12) // 144 nodes
	re, _ := EstimateEdgeExpansion(g, opts(11))
	cyc, _ := EstimateEdgeExpansion(gen.Cycle(144), opts(12))
	if re.EdgeAlpha < 5*cyc.EdgeAlpha {
		t.Fatalf("expander αe=%v not ≫ cycle αe=%v", re.EdgeAlpha, cyc.EdgeAlpha)
	}
}

func TestFindBestAlwaysCullsDisconnectedShard(t *testing.T) {
	// Regression: an adversary that disconnects a small shard must see
	// it found as a zero-quotient set deterministically, regardless of
	// heuristic luck — Prune's Theorem 2.1 guarantee depends on it.
	big := gen.Torus(8, 8)
	n := big.N()
	b := graph.NewBuilder(n + 5)
	big.ForEachEdge(func(u, v int) { b.AddEdge(u, v) })
	// 5-node shard, fully disconnected from the torus.
	for i := 0; i < 4; i++ {
		b.AddEdge(n+i, n+i+1)
	}
	g := b.Build()
	for seed := uint64(0); seed < 20; seed++ {
		r, ok := FindBest(g, NodeMode, g.N()/2, false, opts(seed))
		if !ok || r.NodeAlpha != 0 {
			t.Fatalf("seed %d: finder missed the disconnected shard: %+v", seed, r)
		}
		re, ok := FindBest(g, EdgeMode, g.N()/2, true, opts(seed))
		if !ok || re.EdgeAlpha != 0 {
			t.Fatalf("seed %d: connected edge mode missed the shard: %+v", seed, re)
		}
	}
}

func TestFindBestDegenerate(t *testing.T) {
	if _, ok := FindBest(gen.Path(1), NodeMode, 1, false, opts(13)); ok {
		t.Fatal("singleton graph should yield no cut")
	}
	if _, ok := FindBest(gen.Path(5), NodeMode, 0, false, opts(14)); ok {
		t.Fatal("maxSize 0 should yield no cut")
	}
}

func TestRNGRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing RNG should panic")
		}
	}()
	FindBest(gen.Cycle(30), NodeMode, 15, false, Options{})
}

func BenchmarkFindBestTorus(b *testing.B) {
	g := gen.Torus(16, 16)
	for i := 0; i < b.N; i++ {
		_, _ = FindBest(g, EdgeMode, g.N()/2, false, opts(uint64(i)))
	}
}

func BenchmarkFindBestConnected(b *testing.B) {
	g := gen.Torus(16, 16)
	for i := 0; i < b.N; i++ {
		_, _ = FindBest(g, EdgeMode, g.N()/2, true, opts(uint64(i)))
	}
}
