package spectral

import (
	"math"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// scratchCorpus returns random faulted graphs whose order grows, then
// shrinks, then grows again, so a scratch reused across them sees its
// buffers (basis arena, tridiagonal, Ritz coefficients) both grow and
// hold stale data from a larger previous run.
func scratchCorpus() []*graph.Graph {
	rng := xrand.New(11)
	bases := []*graph.Graph{
		gen.Torus(6, 6),
		gen.Torus(12, 12),
		gen.Hypercube(8),
		gen.GabberGalil(16),
		gen.Torus(5, 7),
		gen.Cycle(9),
		gen.ConnectedRandomRegular(200, 3, rng.Split()),
		gen.Hypercube(5),
		gen.Torus(20, 20),
		gen.GabberGalil(8),
	}
	var out []*graph.Graph
	for _, g := range bases {
		for _, rate := range []float64{0, 0.03, 0.1} {
			keep := make([]bool, g.N())
			for v := range keep {
				keep[v] = rng.Float64() >= rate
			}
			out = append(out, g.Induce(keep).LargestComponentSub().G)
		}
	}
	return out
}

// TestLambda2ScratchMatchesFiedler checks the value-only path against
// the full Fiedler solve: on every graph, with one scratch reused
// across graphs of growing and shrinking order, Lambda2Scratch returns
// Fiedler(g, 0, rng).Lambda2 bit for bit from the same rng state and
// leaves the rng where Fiedler leaves it.
func TestLambda2ScratchMatchesFiedler(t *testing.T) {
	var scr Scratch
	for i, g := range scratchCorpus() {
		seed := uint64(100 + i)
		rngF, rngV := xrand.New(seed), xrand.New(seed)
		want := Fiedler(g, 0, rngF).Lambda2
		got := Lambda2Scratch(g, rngV, &scr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("graph %d (n=%d): Lambda2Scratch = %v, Fiedler = %v", i, g.N(), got, want)
		}
		if rngV.Uint64() != rngF.Uint64() {
			t.Errorf("graph %d (n=%d): Lambda2Scratch left the rng in a different state", i, g.N())
		}
		if l2 := Lambda2(g, xrand.New(seed)); math.Float64bits(l2) != math.Float64bits(want) {
			t.Errorf("graph %d (n=%d): Lambda2 = %v, Fiedler = %v", i, g.N(), l2, want)
		}
	}
}

// TestLambda2ScratchSmallAndDisconnected covers the edge cases of the
// value-only path on a reused scratch: n = 0 and 1 (λ₂ = 0, rng
// untouched), n = 2 with and without its edge, and a disconnected
// graph, whose λ₂ is 0.
func TestLambda2ScratchSmallAndDisconnected(t *testing.T) {
	var scr Scratch
	// Warm the scratch on a larger graph first, so the small cases run
	// over stale buffers.
	Lambda2Scratch(gen.Torus(8, 8), xrand.New(1), &scr)
	disconnected := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.FromEdges(0, nil)},
		{"single", graph.FromEdges(1, nil)},
		{"edge", graph.FromEdges(2, [][2]int{{0, 1}})},
		{"two isolated", graph.FromEdges(2, nil)},
		{"two paths", disconnected},
	}
	for _, c := range cases {
		rngF, rngV := xrand.New(5), xrand.New(5)
		want := Fiedler(c.g, 0, rngF).Lambda2
		got := Lambda2Scratch(c.g, rngV, &scr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Lambda2Scratch = %v, Fiedler = %v", c.name, got, want)
		}
		if rngV.Uint64() != rngF.Uint64() {
			t.Errorf("%s: Lambda2Scratch left the rng in a different state", c.name)
		}
	}
	for _, c := range cases[:2] {
		rng := xrand.New(5)
		if got := Lambda2Scratch(c.g, rng, &scr); got != 0 {
			t.Errorf("%s: λ₂ = %v, want 0", c.name, got)
		}
		if rng.Uint64() != xrand.New(5).Uint64() {
			t.Errorf("%s: Lambda2Scratch drew from the rng", c.name)
		}
	}
	if got := Lambda2Scratch(graph.FromEdges(2, [][2]int{{0, 1}}), xrand.New(5), &scr); !almost(got, 2, 1e-12) {
		t.Errorf("K2: λ₂ = %v, want 2", got)
	}
	if got := Lambda2Scratch(disconnected, xrand.New(5), &scr); !almost(got, 0, 1e-12) {
		t.Errorf("disconnected: λ₂ = %v, want 0", got)
	}
}

// TestFiedlerScratchReuseMatchesFresh checks that a reused scratch
// changes nothing: FiedlerScratch on one scratch carried across graphs
// of growing and shrinking order returns the λ₂, iteration count and
// Fiedler vector of a fresh scratch bit for bit — in particular the
// inverse iteration never reads a pivot or coefficient left over from a
// larger solve.
func TestFiedlerScratchReuseMatchesFresh(t *testing.T) {
	var scr Scratch
	for i, g := range scratchCorpus() {
		seed := uint64(200 + i)
		want := FiedlerScratch(g, 0, xrand.New(seed), &Scratch{})
		got := FiedlerScratch(g, 0, xrand.New(seed), &scr)
		if math.Float64bits(got.Lambda2) != math.Float64bits(want.Lambda2) || got.Iters != want.Iters {
			t.Errorf("graph %d (n=%d): reused scratch gave λ₂ %v in %d steps, fresh %v in %d",
				i, g.N(), got.Lambda2, got.Iters, want.Lambda2, want.Iters)
			continue
		}
		if len(got.Vector) != len(want.Vector) {
			t.Fatalf("graph %d: vector length %d, want %d", i, len(got.Vector), len(want.Vector))
		}
		for v := range want.Vector {
			if math.Float64bits(got.Vector[v]) != math.Float64bits(want.Vector[v]) {
				t.Errorf("graph %d (n=%d): reused scratch vector[%d] = %v, fresh %v",
					i, g.N(), v, got.Vector[v], want.Vector[v])
				break
			}
		}
	}
}

// TestLambda2ScratchZeroAllocsWarm pins the point of the value-only
// path: on a warm scratch it allocates nothing.
func TestLambda2ScratchZeroAllocsWarm(t *testing.T) {
	g := gen.Torus(12, 12)
	var scr Scratch
	rng := xrand.New(3)
	Lambda2Scratch(g, rng, &scr)
	allocs := testing.AllocsPerRun(20, func() {
		rng.Reseed(3)
		Lambda2Scratch(g, rng, &scr)
	})
	if allocs != 0 {
		t.Errorf("warm Lambda2Scratch: %v allocs per call, want 0", allocs)
	}
}
