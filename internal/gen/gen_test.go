package gen

import (
	"testing"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func TestMeshShape(t *testing.T) {
	g := Mesh(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// 2D mesh edges: (3-1)*4 + 3*(4-1) = 8 + 9 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("mesh must be connected")
	}
	// Corner degree 2, interior degree up to 4.
	if g.MinDegree() != 2 || g.MaxDegree() != 4 {
		t.Fatalf("degrees: min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}
}

func TestMesh3D(t *testing.T) {
	g := Mesh(3, 3, 3)
	if g.N() != 27 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: 3 orientations × 2*3*3 = 54.
	if g.M() != 54 {
		t.Fatalf("M = %d, want 54", g.M())
	}
	if g.MaxDegree() != 6 || g.MinDegree() != 3 {
		t.Fatalf("degrees: %d/%d", g.MaxDegree(), g.MinDegree())
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatalf("torus should be 4-regular, got %d..%d", g.MinDegree(), g.MaxDegree())
	}
	if g.M() != 40 {
		t.Fatalf("M = %d, want 40", g.M())
	}
}

func TestTorusSmallSidesNoDuplicates(t *testing.T) {
	// Side 2: wraparound would duplicate the mesh edge; generator must
	// not create parallel edges (builder dedupes anyway).
	g := Torus(2, 2)
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("2x2 torus: n=%d m=%d, want 4/4", g.N(), g.M())
	}
}

func TestMeshCoordsRoundTrip(t *testing.T) {
	dims := []int{3, 4, 5}
	for v := 0; v < 60; v++ {
		c := MeshCoords(v, dims)
		if got := MeshIndex(c, dims); got != v {
			t.Fatalf("round trip %d -> %v -> %d", v, c, got)
		}
	}
}

func TestMeshAdjacencyIsUnitStep(t *testing.T) {
	dims := []int{4, 4}
	g := Mesh(dims...)
	g.ForEachEdge(func(u, v int) {
		cu, cv := MeshCoords(u, dims), MeshCoords(v, dims)
		diff := 0
		for i := range cu {
			d := cu[i] - cv[i]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		if diff != 1 {
			t.Fatalf("edge (%v,%v) is not a unit step", cu, cv)
		}
	})
}

func TestCAN(t *testing.T) {
	g := CAN(3, 4)
	if g.N() != 64 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() != 6 || g.MaxDegree() != 6 {
		t.Fatalf("CAN(3,4) should be 6-regular")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatal("Q4 should be 4-regular")
	}
	if !g.IsConnected() {
		t.Fatal("hypercube must be connected")
	}
	// Distance equals Hamming distance.
	if g.Distance(0, 15) != 4 {
		t.Fatalf("distance(0,1111) = %d", g.Distance(0, 15))
	}
}

func TestBasicFamilies(t *testing.T) {
	if g := Complete(6); g.M() != 15 || g.MinDegree() != 5 {
		t.Fatalf("K6 wrong: %v", g)
	}
	if g := Cycle(7); g.M() != 7 || g.MaxDegree() != 2 || !g.IsConnected() {
		t.Fatalf("C7 wrong: %v", g)
	}
	if g := Path(7); g.M() != 6 || g.Degree(0) != 1 {
		t.Fatalf("P7 wrong: %v", g)
	}
	if g := Star(5); g.M() != 4 || g.Degree(0) != 4 {
		t.Fatalf("star wrong: %v", g)
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5)
	if g.N() != 10 || g.M() != 2*10+1 {
		t.Fatalf("barbell: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("barbell must be connected")
	}
	if !g.HasEdge(4, 5) {
		t.Fatal("bridge edge missing")
	}
}

func TestButterfly(t *testing.T) {
	d := 3
	g := Butterfly(d)
	if g.N() != (d+1)*8 {
		t.Fatalf("N = %d", g.N())
	}
	// Each of d levels contributes 2·2^d edges.
	if g.M() != d*2*8 {
		t.Fatalf("M = %d, want %d", g.M(), d*2*8)
	}
	if !g.IsConnected() {
		t.Fatal("butterfly must be connected")
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("interior degree = %d, want 4", g.MaxDegree())
	}
	if g.Degree(ButterflyID(d, 0, 0)) != 2 {
		t.Fatal("input level should have degree 2")
	}
}

func TestWrappedButterfly(t *testing.T) {
	d := 3
	g := WrappedButterfly(d)
	if g.N() != d*8 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatalf("wrapped butterfly should be 4-regular, got %d..%d", g.MinDegree(), g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("wrapped butterfly must be connected")
	}
}

func TestCCC(t *testing.T) {
	g := CCC(3)
	if g.N() != 24 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() != 3 || g.MaxDegree() != 3 {
		t.Fatal("CCC should be 3-regular")
	}
	if !g.IsConnected() {
		t.Fatal("CCC must be connected")
	}
}

func TestDeBruijnShuffleExchange(t *testing.T) {
	g := DeBruijn(4)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("de Bruijn degree %d > 4", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("de Bruijn must be connected")
	}
	se := ShuffleExchange(4)
	if se.N() != 16 || se.MaxDegree() > 3 || !se.IsConnected() {
		t.Fatalf("shuffle-exchange wrong: %v maxdeg=%d", se, se.MaxDegree())
	}
}

func TestGNPEdgeCount(t *testing.T) {
	rng := xrand.New(1)
	n := 200
	p := 0.05
	g := GNP(n, p, rng)
	want := float64(n*(n-1)/2) * p
	if got := float64(g.M()); got < want*0.7 || got > want*1.3 {
		t.Fatalf("GNP edges = %v, want ≈%v", got, want)
	}
	if g2 := GNP(n, 0, rng); g2.M() != 0 {
		t.Fatal("GNP(p=0) must be empty")
	}
	if g3 := GNP(5, 1, rng); g3.M() != 10 {
		t.Fatal("GNP(p=1) must be complete")
	}
}

func TestGNPDeterministic(t *testing.T) {
	a := GNP(50, 0.1, xrand.New(42))
	b := GNP(50, 0.1, xrand.New(42))
	if a.M() != b.M() {
		t.Fatal("GNP not deterministic for fixed seed")
	}
}

func TestGNM(t *testing.T) {
	rng := xrand.New(2)
	g := GNM(30, 45, rng)
	if g.N() != 30 || g.M() != 45 {
		t.Fatalf("GNM: n=%d m=%d", g.N(), g.M())
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(3)
	for _, c := range []struct{ n, d int }{{10, 3}, {50, 4}, {64, 8}, {101, 4}} {
		if c.n*c.d%2 != 0 {
			continue
		}
		g := RandomRegular(c.n, c.d, rng)
		if g.N() != c.n {
			t.Fatalf("n=%d d=%d: N=%d", c.n, c.d, g.N())
		}
		for v := 0; v < c.n; v++ {
			if g.Degree(v) != c.d {
				t.Fatalf("n=%d d=%d: degree(%d)=%d", c.n, c.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d should panic")
		}
	}()
	RandomRegular(5, 3, xrand.New(1))
}

func TestConnectedRandomRegular(t *testing.T) {
	g := ConnectedRandomRegular(60, 3, xrand.New(5))
	if !g.IsConnected() {
		t.Fatal("ConnectedRandomRegular returned a disconnected graph")
	}
}

func TestGabberGalil(t *testing.T) {
	g := GabberGalil(8)
	if g.N() != 64 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MaxDegree() > 8 {
		t.Fatalf("degree %d > 8", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("Gabber–Galil expander must be connected")
	}
	// Expanders have logarithmic diameter; sanity-check it is small.
	if d := g.ApproxDiameter(0); d > 10 {
		t.Fatalf("diameter %d too large for an expander on 64 nodes", d)
	}
}

func TestChainReplace(t *testing.T) {
	base := Complete(4) // n=4, m=6, δ=3
	k := 4
	cg := ChainReplace(base, k)
	if cg.G.N() != 4+6*k {
		t.Fatalf("chain graph N = %d, want %d", cg.G.N(), 4+6*k)
	}
	// Edges: each base edge contributes k+1 edges.
	if cg.G.M() != 6*(k+1) {
		t.Fatalf("chain graph M = %d, want %d", cg.G.M(), 6*(k+1))
	}
	if !cg.G.IsConnected() {
		t.Fatal("chain graph must be connected")
	}
	if len(cg.Centers) != 6 || len(cg.Chains) != 6 {
		t.Fatalf("chains/centers: %d/%d", len(cg.Chains), len(cg.Centers))
	}
	// Chain nodes must have degree 2; base nodes keep their base degree.
	for _, chain := range cg.Chains {
		if len(chain) != k {
			t.Fatalf("chain length %d, want %d", len(chain), k)
		}
		for _, v := range chain {
			if cg.G.Degree(v) != 2 {
				t.Fatalf("chain node %d has degree %d", v, cg.G.Degree(v))
			}
		}
	}
	for v := 0; v < 4; v++ {
		if cg.G.Degree(v) != 3 {
			t.Fatalf("base node %d degree %d, want 3", v, cg.G.Degree(v))
		}
	}
}

func TestChainReplaceCentersShatter(t *testing.T) {
	// Removing all centers must break the graph into small components —
	// the Theorem 2.3 adversary in action.
	base := GabberGalil(5) // 25 nodes
	k := 4
	cg := ChainReplace(base, k)
	faulty := cg.G.RemoveVertices(cg.CenterSet())
	sizes := faulty.G.ComponentSizes()
	bound := cg.ExpectedShatterSize()
	for _, s := range sizes {
		if s > bound {
			t.Fatalf("component of size %d exceeds shatter bound %d", s, bound)
		}
	}
}

func TestMultibutterfly(t *testing.T) {
	rng := xrand.New(11)
	mb := Multibutterfly(4, 2, rng)
	rows := 16
	if mb.G.N() != 5*rows {
		t.Fatalf("N = %d", mb.G.N())
	}
	if len(mb.Inputs) != rows || len(mb.Outputs) != rows {
		t.Fatal("inputs/outputs wrong")
	}
	if !mb.G.IsConnected() {
		t.Fatal("multibutterfly should be connected")
	}
	// Every input must reach some output.
	dist := mb.G.BFSDistances(mb.Inputs[0])
	reached := 0
	for _, o := range mb.Outputs {
		if dist[o] >= 0 {
			reached++
		}
	}
	if reached == 0 {
		t.Fatal("no outputs reachable from input 0")
	}
}

func TestLatticePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero side should panic")
		}
	}()
	Mesh(0, 3)
}

func degreeHistogram(g *graph.Graph) map[int]int {
	h := map[int]int{}
	for v := 0; v < g.N(); v++ {
		h[g.Degree(v)]++
	}
	return h
}

func TestButterflyDegreeProfile(t *testing.T) {
	d := 4
	g := Butterfly(d)
	h := degreeHistogram(g)
	rows := 1 << uint(d)
	// Ends have degree 2 (2 levels × rows nodes), interior degree 4.
	if h[2] != 2*rows {
		t.Fatalf("degree-2 nodes = %d, want %d", h[2], 2*rows)
	}
	if h[4] != (d-1)*rows {
		t.Fatalf("degree-4 nodes = %d, want %d", h[4], (d-1)*rows)
	}
}

func BenchmarkMesh2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Mesh(64, 64)
	}
}

func BenchmarkRandomRegular(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		_ = RandomRegular(1024, 4, rng)
	}
}

func BenchmarkGabberGalil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GabberGalil(32)
	}
}

// latticeRef is the original Builder-based lattice construction, kept
// as the reference the direct-CSR fast path must match byte for byte.
func latticeRef(dims []int, wrap bool) *graph.Graph {
	n := 1
	for _, d := range dims {
		n *= d
	}
	b := graph.NewBuilder(n)
	stride := make([]int, len(dims))
	s := 1
	for i, d := range dims {
		stride[i] = s
		s *= d
	}
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		for i, d := range dims {
			if coord[i]+1 < d {
				b.AddEdge(v, v+stride[i])
			} else if wrap && d > 2 {
				b.AddEdge(v, v-(d-1)*stride[i])
			}
		}
		for i := range coord {
			coord[i]++
			if coord[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
	}
	return b.Build()
}

// TestLatticeCSRMatchesBuilder pins the direct-CSR lattice against the
// Builder reference across dimension shapes, including the wrap
// special cases (side 2 must not double edges, side 1 contributes
// nothing).
func TestLatticeCSRMatchesBuilder(t *testing.T) {
	cases := [][]int{
		{1}, {2}, {3}, {7},
		{4, 4}, {2, 5}, {1, 6}, {2, 2},
		{3, 4, 5}, {2, 2, 2}, {1, 3, 1, 4},
		{5, 1, 2},
	}
	for _, dims := range cases {
		for _, wrap := range []bool{false, true} {
			var got, want *graph.Graph
			if wrap {
				got, want = Torus(dims...), latticeRef(dims, true)
			} else {
				got, want = Mesh(dims...), latticeRef(dims, false)
			}
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("dims %v wrap=%v: got %v, want %v", dims, wrap, got, want)
			}
			for v := 0; v < got.N(); v++ {
				gn, wn := got.Neighbors(v), want.Neighbors(v)
				if len(gn) != len(wn) {
					t.Fatalf("dims %v wrap=%v vertex %d: neighbors %v, want %v", dims, wrap, v, gn, wn)
				}
				for i := range gn {
					if gn[i] != wn[i] {
						t.Fatalf("dims %v wrap=%v vertex %d: neighbors %v, want %v", dims, wrap, v, gn, wn)
					}
				}
			}
		}
	}
}
