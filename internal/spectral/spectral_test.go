package spectral

import (
	"math"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Closed forms: normalized Laplacian eigenvalues.
//   - K_n: 0 and n/(n-1) (multiplicity n-1)
//   - C_n: 1 - cos(2πk/n), k = 0..n-1
//   - Q_d: 2k/d with multiplicity C(d,k)

func TestExactSpectrumComplete(t *testing.T) {
	n := 8
	vals := ExactSpectrum(gen.Complete(n))
	if !almost(vals[0], 0, 1e-9) {
		t.Fatalf("λ1 = %v", vals[0])
	}
	want := float64(n) / float64(n-1)
	for i := 1; i < n; i++ {
		if !almost(vals[i], want, 1e-9) {
			t.Fatalf("λ%d = %v, want %v", i+1, vals[i], want)
		}
	}
}

func TestExactSpectrumCycle(t *testing.T) {
	n := 10
	vals := ExactSpectrum(gen.Cycle(n))
	// Build expected multiset.
	want := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, 1-math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	// sort ascending
	for i := 1; i < n; i++ {
		for j := i; j > 0 && want[j] < want[j-1]; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	for i := range vals {
		if !almost(vals[i], want[i], 1e-8) {
			t.Fatalf("cycle λ%d = %v, want %v", i+1, vals[i], want[i])
		}
	}
}

func TestExactSpectrumHypercube(t *testing.T) {
	d := 3
	vals := ExactSpectrum(gen.Hypercube(d))
	// Eigenvalues 2k/d with multiplicity C(3,k): 0, 2/3×3, 4/3×3, 2.
	want := []float64{0, 2. / 3, 2. / 3, 2. / 3, 4. / 3, 4. / 3, 4. / 3, 2}
	for i := range vals {
		if !almost(vals[i], want[i], 1e-8) {
			t.Fatalf("Q3 λ%d = %v, want %v", i+1, vals[i], want[i])
		}
	}
}

func TestLambda2DisconnectedIsZero(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if l2 := ExactLambda2(g); !almost(l2, 0, 1e-9) {
		t.Fatalf("disconnected λ2 = %v, want 0", l2)
	}
	if l2 := Lambda2(g, xrand.New(1)); l2 > 1e-6 {
		t.Fatalf("Lanczos λ2 on disconnected graph = %v, want ≈0", l2)
	}
}

func TestLanczosMatchesJacobi(t *testing.T) {
	rng := xrand.New(7)
	cases := []*graph.Graph{
		gen.Complete(12),
		gen.Cycle(20),
		gen.Hypercube(4),
		gen.Mesh(5, 5),
		gen.Torus(4, 6),
		gen.GabberGalil(5),
		gen.ConnectedRandomRegular(30, 3, rng),
	}
	for i, g := range cases {
		exact := ExactLambda2(g)
		approx := Lambda2(g, rng.Split())
		if !almost(exact, approx, 1e-6+1e-4*exact) {
			t.Errorf("case %d (%v): Lanczos λ2 = %v, Jacobi = %v", i, g, approx, exact)
		}
	}
}

func TestFiedlerVectorSeparatesBarbell(t *testing.T) {
	// On a barbell the Fiedler vector must separate the two cliques by
	// sign.
	g := gen.Barbell(8)
	res := Fiedler(g, 0, xrand.New(3))
	signLeft, signRight := 0, 0
	for v := 0; v < 8; v++ {
		if res.Vector[v] > 0 {
			signLeft++
		}
	}
	for v := 8; v < 16; v++ {
		if res.Vector[v] > 0 {
			signRight++
		}
	}
	// One side almost entirely positive, the other almost entirely negative.
	if !(signLeft >= 7 && signRight <= 1) && !(signLeft <= 1 && signRight >= 7) {
		t.Fatalf("Fiedler vector fails to separate cliques: left+%d right+%d", signLeft, signRight)
	}
}

func TestExpanderHasLargeGap(t *testing.T) {
	g := gen.GabberGalil(16) // 256 nodes
	l2 := Lambda2(g, xrand.New(5))
	// Margulis-type expanders have λ2 bounded away from 0 independently
	// of size; empirically ≈0.1+ for the normalized Laplacian.
	if l2 < 0.02 {
		t.Fatalf("expander λ2 = %v, too small", l2)
	}
	// Meanwhile a path of the same size has tiny λ2.
	path := gen.Path(256)
	lp := Lambda2(path, xrand.New(5))
	if lp > l2/3 {
		t.Fatalf("path λ2 %v not ≪ expander λ2 %v", lp, l2)
	}
}

func TestConductance(t *testing.T) {
	g := gen.Cycle(8)
	mask := make([]bool, 8)
	for i := 0; i < 4; i++ {
		mask[i] = true // contiguous arc: cut = 2, vol = 8
	}
	if got := Conductance(g, mask); !almost(got, 0.25, 1e-12) {
		t.Fatalf("conductance = %v, want 0.25", got)
	}
	// Degenerate side.
	empty := make([]bool, 8)
	if !math.IsInf(Conductance(g, empty), 1) {
		t.Fatal("empty side must give +Inf")
	}
}

func TestCheegerInequalityHolds(t *testing.T) {
	// For several graphs, the true conductance (by brute force over
	// subsets) must lie within the Cheeger bounds from exact λ2.
	rng := xrand.New(11)
	cases := []*graph.Graph{
		gen.Cycle(10),
		gen.Complete(8),
		gen.Mesh(3, 4),
		gen.ConnectedRandomRegular(12, 3, rng),
	}
	for ci, g := range cases {
		n := g.N()
		l2 := ExactLambda2(g)
		lo, hi := CheegerBounds(l2)
		// Brute-force conductance.
		best := math.Inf(1)
		for mask := 1; mask < 1<<uint(n)-1; mask++ {
			bm := make([]bool, n)
			for v := 0; v < n; v++ {
				bm[v] = mask&(1<<uint(v)) != 0
			}
			if c := Conductance(g, bm); c < best {
				best = c
			}
		}
		if best < lo-1e-9 || best > hi+1e-9 {
			t.Errorf("case %d: conductance %v outside Cheeger bounds [%v, %v]", ci, best, lo, hi)
		}
	}
}

func TestLaplacianApplyShiftedConsistent(t *testing.T) {
	g := gen.Mesh(4, 4)
	l := NewLaplacian(g)
	n := g.N()
	rng := xrand.New(13)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, b := make([]float64, n), make([]float64, n)
	l.Apply(a, x)
	l.ApplyShifted(b, x)
	for i := range x {
		if !almost(a[i]+b[i], 2*x[i], 1e-12) {
			t.Fatalf("L + (2I−L) ≠ 2I at %d", i)
		}
	}
}

// TestJacobiEigenvectorsOrthonormal also pins that ExactSpectrum, which
// skips the eigenvector rotations, returns JacobiEigen's values bit for
// bit.
func TestJacobiEigenvectorsOrthonormal(t *testing.T) {
	g := gen.Mesh(3, 3)
	vals, vecs := JacobiEigen(DenseNormalizedLaplacian(g))
	for i, x := range ExactSpectrum(g) {
		if math.Float64bits(x) != math.Float64bits(vals[i]) {
			t.Fatalf("ExactSpectrum value %d = %v, JacobiEigen's = %v", i, x, vals[i])
		}
	}
	n := len(vals)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for r := 0; r < n; r++ {
				s += vecs[r][i] * vecs[r][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if !almost(s, want, 1e-8) {
				t.Fatalf("v%d·v%d = %v, want %v", i, j, s, want)
			}
		}
	}
}

func BenchmarkLambda2Torus(b *testing.B) {
	g := gen.Torus(32, 32)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Lambda2(g, rng.Split())
	}
}

func BenchmarkExactLambda2(b *testing.B) {
	g := gen.Mesh(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExactLambda2(g)
	}
}
