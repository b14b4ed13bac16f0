package perc

import (
	"math"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/xrand"
)

func TestSweepCurveShape(t *testing.T) {
	g := gen.Torus(12, 12)
	for _, mode := range []Mode{Site, Bond} {
		c := Sweep(g, mode, 10, xrand.New(3))
		if len(c.Gamma) != c.Elements+1 {
			t.Fatalf("%v: curve length %d, want %d", mode, len(c.Gamma), c.Elements+1)
		}
		// Monotone nondecreasing: adding elements can only grow the
		// largest cluster.
		for k := 1; k < len(c.Gamma); k++ {
			if c.Gamma[k] < c.Gamma[k-1]-1e-12 {
				t.Fatalf("%v: curve decreased at k=%d", mode, k)
			}
		}
		// Endpoints: full occupation = whole (connected) graph.
		if math.Abs(c.Gamma[len(c.Gamma)-1]-1) > 1e-12 {
			t.Fatalf("%v: γ at full occupation = %v", mode, c.Gamma[len(c.Gamma)-1])
		}
	}
}

func TestCurveAtP(t *testing.T) {
	g := gen.Torus(8, 8)
	c := Sweep(g, Site, 5, xrand.New(5))
	if got := c.AtP(0); got != c.Gamma[0] {
		t.Fatalf("AtP(0) = %v", got)
	}
	if got := c.AtP(1); got != c.Gamma[c.Elements] {
		t.Fatalf("AtP(1) = %v", got)
	}
	if got := c.AtP(2); got != c.Gamma[c.Elements] {
		t.Fatal("AtP should clamp above 1")
	}
}

func TestGammaAtPEndpoints(t *testing.T) {
	g := gen.Torus(8, 8)
	rng := xrand.New(7)
	if got := GammaAtP(g, Site, 1, 3, rng); got != 1 {
		t.Fatalf("site γ(1) = %v", got)
	}
	if got := GammaAtP(g, Site, 0, 3, rng); got != 0 {
		t.Fatalf("site γ(0) = %v", got)
	}
	if got := GammaAtP(g, Bond, 1, 3, rng); got != 1 {
		t.Fatalf("bond γ(1) = %v", got)
	}
	// Bond with p=0: all vertices isolated → γ = 1/n.
	if got := GammaAtP(g, Bond, 0, 3, rng); math.Abs(got-1.0/64) > 1e-12 {
		t.Fatalf("bond γ(0) = %v, want 1/64", got)
	}
}

func TestSweepMatchesDirectSampling(t *testing.T) {
	g := gen.Torus(16, 16)
	rng := xrand.New(11)
	c := Sweep(g, Site, 40, rng)
	for _, p := range []float64{0.3, 0.6, 0.8} {
		direct := GammaAtP(g, Site, p, 40, rng.Split())
		sweep := c.AtP(p)
		if math.Abs(direct-sweep) > 0.1 {
			t.Fatalf("p=%v: sweep %v vs direct %v", p, sweep, direct)
		}
	}
}

func TestCriticalPCompleteGraph(t *testing.T) {
	// Erdős–Rényi: K_n with edge survival p has a giant component for
	// p > 1/(n-1). With n=100, p* ≈ 0.0101.
	g := gen.Complete(100)
	rng := xrand.New(13)
	p := CriticalP(g, Bond, 0.2, 12, 12, rng)
	if p < 0.005 || p > 0.05 {
		t.Fatalf("K100 bond threshold = %v, want ≈0.01–0.03", p)
	}
}

func TestCriticalPMeshBond(t *testing.T) {
	// Kesten: 2-D bond percolation threshold = 1/2 (asymptotically; the
	// γ-crossing estimator at moderate target lands near it for finite
	// tori).
	g := gen.Torus(24, 24)
	rng := xrand.New(17)
	p := CriticalP(g, Bond, 0.25, 16, 12, rng)
	if p < 0.35 || p > 0.65 {
		t.Fatalf("2D bond threshold = %v, want ≈0.5", p)
	}
}

func TestCriticalPHigherForSite(t *testing.T) {
	// Site thresholds exceed bond thresholds on the same lattice
	// (p_c^site ≈ 0.593 vs p_c^bond = 0.5 on Z²).
	g := gen.Torus(24, 24)
	rng := xrand.New(19)
	bond := CriticalP(g, Bond, 0.25, 12, 10, rng)
	site := CriticalP(g, Site, 0.25, 12, 10, rng)
	if site <= bond {
		t.Fatalf("site threshold %v should exceed bond threshold %v", site, bond)
	}
}

func TestCriticalPFromCurveAgrees(t *testing.T) {
	g := gen.Torus(16, 16)
	rng := xrand.New(23)
	c := Sweep(g, Bond, 30, rng)
	fromCurve := CriticalPFromCurve(c, 0.25)
	direct := CriticalP(g, Bond, 0.25, 12, 10, rng.Split())
	if math.Abs(fromCurve-direct) > 0.12 {
		t.Fatalf("curve %v vs direct %v", fromCurve, direct)
	}
}

func TestChainGraphDisintegratesAtTheorem31Point(t *testing.T) {
	// Theorem 3.1's shape: at survival probability 1 − 4lnδ/k, the
	// chain-replaced expander loses its linear-sized component while the
	// base expander at the same fault probability keeps one.
	base := gen.GabberGalil(6) // 36 nodes, δ ≤ 8
	k := 16
	cg := gen.ChainReplace(base, k)
	delta := base.MaxDegree()
	pFault := 4 * math.Log(float64(delta)) / float64(k)
	if pFault > 0.9 {
		t.Skip("degenerate operating point")
	}
	rng := xrand.New(31)
	gammaChain := GammaAtP(cg.G, Site, 1-pFault, 15, rng)
	gammaBase := GammaAtP(base, Site, 1-pFault, 15, rng)
	if gammaChain > 0.35 {
		t.Fatalf("chain graph kept γ=%v at the disintegration point", gammaChain)
	}
	// γ is a fraction of *all* nodes, so the alive fraction (1−pFault)
	// caps it; "keeps a giant component" means γ is a constant fraction
	// of the alive mass.
	if gammaBase < 0.5*(1-pFault) {
		t.Fatalf("base expander lost its giant component: γ=%v of alive %v", gammaBase, 1-pFault)
	}
}

func BenchmarkSweepSiteTorus(b *testing.B) {
	g := gen.Torus(64, 64)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sweep(g, Site, 1, rng)
	}
}

func BenchmarkGammaAtP(b *testing.B) {
	g := gen.Torus(64, 64)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GammaAtP(g, Site, 0.6, 1, rng)
	}
}
