package expansion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBoundaryBasics(t *testing.T) {
	// Path 0-1-2-3-4, U = {2}: Γ(U) = {1,3}.
	g := gen.Path(5)
	inU := Mask(5, []int{2})
	b := Boundary(g, inU)
	if len(b) != 2 {
		t.Fatalf("boundary = %v", b)
	}
	if BoundarySize(g, inU) != 2 {
		t.Fatal("BoundarySize mismatch")
	}
	if EdgeBoundarySize(g, inU) != 2 {
		t.Fatal("EdgeBoundarySize mismatch")
	}
	if NodeExpansionOf(g, inU) != 2 {
		t.Fatal("node expansion of {2} should be 2")
	}
}

func TestBoundaryNoDoubleCount(t *testing.T) {
	// Star: U = two leaves; Γ(U) = {hub} counted once.
	g := gen.Star(5)
	inU := Mask(5, []int{1, 2})
	if BoundarySize(g, inU) != 1 {
		t.Fatalf("BoundarySize = %d, want 1", BoundarySize(g, inU))
	}
	if EdgeBoundarySize(g, inU) != 2 {
		t.Fatalf("EdgeBoundarySize = %d, want 2", EdgeBoundarySize(g, inU))
	}
}

func TestEvaluate(t *testing.T) {
	g := gen.Cycle(6)
	r := Evaluate(g, []int{0, 1, 2})
	if r.Size != 3 || r.Boundary != 2 || r.CutEdges != 2 {
		t.Fatalf("Evaluate = %+v", r)
	}
	if !almost(r.NodeAlpha, 2.0/3.0, 1e-12) || !almost(r.EdgeAlpha, 2.0/3.0, 1e-12) {
		t.Fatalf("alphas = %v %v", r.NodeAlpha, r.EdgeAlpha)
	}
}

// Brute-force references.
func bruteNodeExpansion(g *graph.Graph) (float64, int) {
	n := g.N()
	best := math.Inf(1)
	bestMask := 0
	for mask := 1; mask < 1<<uint(n); mask++ {
		pc := 0
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				pc++
			}
		}
		if pc > n/2 {
			continue
		}
		inU := make([]bool, n)
		for v := 0; v < n; v++ {
			inU[v] = mask&(1<<uint(v)) != 0
		}
		a := float64(BoundarySize(g, inU)) / float64(pc)
		if a < best {
			best = a
			bestMask = mask
		}
	}
	return best, bestMask
}

func bruteEdgeExpansion(g *graph.Graph) float64 {
	n := g.N()
	best := math.Inf(1)
	for mask := 1; mask < 1<<uint(n)-1; mask++ {
		pc := 0
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				pc++
			}
		}
		other := n - pc
		min := pc
		if other < min {
			min = other
		}
		inU := make([]bool, n)
		for v := 0; v < n; v++ {
			inU[v] = mask&(1<<uint(v)) != 0
		}
		a := float64(EdgeBoundarySize(g, inU)) / float64(min)
		if a < best {
			best = a
		}
	}
	return best
}

func TestExactNodeExpansionAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(7)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		want, _ := bruteNodeExpansion(g)
		got := ExactNodeExpansion(g)
		if !almost(got.NodeAlpha, want, 1e-12) {
			t.Fatalf("trial %d: exact=%v brute=%v", trial, got.NodeAlpha, want)
		}
		// Witness must actually achieve the value.
		if !almost(NodeExpansionOf(g, Mask(n, got.Set)), got.NodeAlpha, 1e-12) {
			t.Fatalf("trial %d: witness does not achieve α", trial)
		}
	}
}

func TestExactEdgeExpansionAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(7)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		want := bruteEdgeExpansion(g)
		got := ExactEdgeExpansion(g)
		// ExactEdgeExpansion returns the small side so EdgeAlpha = cut/|U|
		// = symmetric value.
		if !almost(got.EdgeAlpha, want, 1e-12) {
			t.Fatalf("trial %d: exact=%v brute=%v", trial, got.EdgeAlpha, want)
		}
	}
}

func TestExactKnownValues(t *testing.T) {
	// K6: node expansion minimized by |U|=3: Γ(U)=3 → α=1... for K_n
	// every proper subset has Γ(U) = n-|U|, so min over |U|≤n/2 is
	// (n-⌊n/2⌋)/⌊n/2⌋ = 1 for even n.
	if r := ExactNodeExpansion(gen.Complete(6)); !almost(r.NodeAlpha, 1, 1e-12) {
		t.Fatalf("K6 α = %v", r.NodeAlpha)
	}
	// C8: best U is a contiguous arc of 4: Γ=2 → α=1/2.
	if r := ExactNodeExpansion(gen.Cycle(8)); !almost(r.NodeAlpha, 0.5, 1e-12) {
		t.Fatalf("C8 α = %v", r.NodeAlpha)
	}
	// C8 edge expansion: cut 2 / side 4 = 1/2.
	if r := ExactEdgeExpansion(gen.Cycle(8)); !almost(r.EdgeAlpha, 0.5, 1e-12) {
		t.Fatalf("C8 αe = %v", r.EdgeAlpha)
	}
	// Q3 (hypercube d=3): edge expansion 1 (dimension cut 4 / side 4).
	if r := ExactEdgeExpansion(gen.Hypercube(3)); !almost(r.EdgeAlpha, 1, 1e-12) {
		t.Fatalf("Q3 αe = %v", r.EdgeAlpha)
	}
	// Barbell(4): single bridge, small side 4: αe = 1/4.
	if r := ExactEdgeExpansion(gen.Barbell(4)); !almost(r.EdgeAlpha, 0.25, 1e-12) {
		t.Fatalf("barbell αe = %v", r.EdgeAlpha)
	}
}

func TestExactThresholdSearches(t *testing.T) {
	g := gen.Barbell(4)
	// The bridge cut has quotient 1/4; threshold above it must find it.
	r, ok := ExactMinEdgeQuotientBelow(g, 4, 0.3)
	if !ok || !almost(r.EdgeAlpha, 0.25, 1e-12) {
		t.Fatalf("edge quotient search failed: %+v ok=%v", r, ok)
	}
	// Threshold below it must fail.
	if _, ok := ExactMinEdgeQuotientBelow(g, 4, 0.2); ok {
		t.Fatal("threshold 0.2 should not be satisfiable")
	}
	// Connected variant: the clique side is connected, same value.
	rc, ok := ExactMinConnectedEdgeQuotientBelow(g, 4, 0.3)
	if !ok || !almost(rc.EdgeAlpha, 0.25, 1e-12) {
		t.Fatalf("connected search failed: %+v ok=%v", rc, ok)
	}
	// Node version on the cycle: α(arc of 4) = 0.5.
	rn, ok := ExactMinNodeQuotientBelow(gen.Cycle(8), 4, 0.5)
	if !ok || !almost(rn.NodeAlpha, 0.5, 1e-12) {
		t.Fatalf("node quotient search failed: %+v ok=%v", rn, ok)
	}
}

// TestExactMinConnectedMatchesEnumeration checks ExactMin's connected
// minimum against a brute-force minimum over every connected set that
// EnumerateConnectedSubgraphs (Wernicke's ESU) lists, in node and edge
// mode, for every size bound, on random small graphs: the quotients
// agree exactly and the witness is connected and within the bound.
func TestExactMinConnectedMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(10)
		b := graph.NewBuilder(n)
		for i := r.Intn(2*n + 1); i > 0; i-- {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		for _, edge := range []bool{false, true} {
			quot := func(res Result) float64 {
				if edge {
					return res.EdgeAlpha
				}
				return res.NodeAlpha
			}
			want := math.Inf(1)
			for maxSize := 1; maxSize <= n; maxSize++ {
				g.EnumerateConnectedSubgraphs(maxSize, func(vs []int) bool {
					want = math.Min(want, quot(Evaluate(g, vs)))
					return true
				})
				got, ok := ExactMin(g, maxSize, edge, true)
				if !ok || quot(got) != want {
					t.Fatalf("trial %d (n=%d, edge=%v, maxSize=%d): ExactMin = %v (ok=%v), enumeration min = %v",
						trial, n, edge, maxSize, quot(got), ok, want)
				}
				if got.Size > maxSize || !g.InduceVertices(got.Set).G.IsConnected() {
					t.Fatalf("trial %d: witness %v is not a connected set of at most %d vertices", trial, got.Set, maxSize)
				}
			}
		}
	}
}

func TestMaskConnectedViaSearch(t *testing.T) {
	// Two triangles, disconnected. Connected search with maxSize 3 must
	// return one triangle (cut 0).
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	r, ok := ExactMinConnectedEdgeQuotientBelow(g, 3, 0.1)
	if !ok || r.CutEdges != 0 || r.Size != 3 {
		t.Fatalf("connected search on two triangles: %+v ok=%v", r, ok)
	}
	sub := g.InduceVertices(r.Set)
	if !sub.G.IsConnected() {
		t.Fatal("witness must be connected")
	}
}

func TestExactPanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n > MaxExactN should panic")
		}
	}()
	ExactNodeExpansion(gen.Cycle(MaxExactN + 1))
}

// Property: for any small random graph and any subset, the DP-free
// evaluation identities hold: |Γe(U)| ≥ |Γ(U)| ≥ (|Γe(U)| / δ).
func TestQuickBoundaryIdentities(t *testing.T) {
	f := func(seed int64, maskBits uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10
		b := graph.NewBuilder(n)
		for i := 0; i < 20; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		delta := g.MaxDegree()
		if delta == 0 {
			return true
		}
		inU := make([]bool, n)
		any := false
		for v := 0; v < n; v++ {
			if maskBits&(1<<uint(v)) != 0 {
				inU[v] = true
				any = true
			}
		}
		if !any {
			return true
		}
		nb := BoundarySize(g, inU)
		eb := EdgeBoundarySize(g, inU)
		return eb >= nb && float64(nb) >= float64(eb)/float64(delta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactNodeExpansion(b *testing.B) {
	g := gen.Torus(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExactNodeExpansion(g)
	}
}

func BenchmarkBoundarySize(b *testing.B) {
	g := gen.Torus(32, 32)
	inU := make([]bool, g.N())
	for i := 0; i < g.N()/2; i++ {
		inU[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BoundarySize(g, inU)
	}
}
