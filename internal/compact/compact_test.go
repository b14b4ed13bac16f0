package compact

import (
	"testing"

	"faultexp/internal/expansion"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func TestIsCompact(t *testing.T) {
	g := gen.Cycle(6)
	if !IsCompact(g, []int{0, 1, 2}) {
		t.Fatal("arc of a cycle is compact")
	}
	if IsCompact(g, []int{0, 2}) {
		t.Fatal("two non-adjacent cycle nodes are not connected → not compact")
	}
	if IsCompact(g, []int{0, 3}) {
		t.Fatal("antipodal pair splits the complement → not compact")
	}
	if IsCompact(g, nil) || IsCompact(g, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatal("empty and full sets are not compact")
	}
}

func TestIsCompactMesh(t *testing.T) {
	g := gen.Mesh(3, 3)
	// Center node: complement is the ring → compact.
	if !IsCompact(g, []int{4}) {
		t.Fatal("mesh center should be compact")
	}
	// Middle column {1,4,7} splits the complement.
	if IsCompact(g, []int{1, 4, 7}) {
		t.Fatal("separating column is not compact")
	}
}

func TestEnumerateCountsOnCycle(t *testing.T) {
	// On C_n the compact sets are exactly the contiguous arcs of length
	// 1..n-1: n·(n-1) of them? Each arc is determined by start and
	// length: n starts × (n-1) lengths, but arcs of length L and the
	// complementary arc are distinct sets — total n(n-1).
	n := 6
	g := gen.Cycle(n)
	count := 0
	Enumerate(g, func(set []int) bool {
		count++
		return true
	})
	if count != n*(n-1) {
		t.Fatalf("C%d compact sets = %d, want %d", n, count, n*(n-1))
	}
}

func TestEnumerateMatchesIsCompact(t *testing.T) {
	g := gen.Mesh(3, 3)
	fromEnum := map[string]bool{}
	Enumerate(g, func(set []int) bool {
		fromEnum[keyOf(set)] = true
		return true
	})
	// Brute force over all subsets.
	n := g.N()
	brute := 0
	for mask := 1; mask < 1<<uint(n)-1; mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				set = append(set, v)
			}
		}
		if IsCompact(g, set) {
			brute++
			if !fromEnum[keyOf(set)] {
				t.Fatalf("enumeration missed compact set %v", set)
			}
		}
	}
	if brute != len(fromEnum) {
		t.Fatalf("enumeration found %d, brute force %d", len(fromEnum), brute)
	}
}

func keyOf(set []int) string {
	k := make([]byte, 0, len(set)*2)
	for _, v := range set {
		k = append(k, byte(v), ',')
	}
	return string(k)
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := gen.Cycle(8)
	count := 0
	Enumerate(g, func(set []int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop at %d, want 5", count)
	}
}

func TestRandomIsCompact(t *testing.T) {
	rng := xrand.New(21)
	g := gen.Torus(6, 6)
	found := 0
	for i := 0; i < 50; i++ {
		set := Random(g, 1+rng.Intn(18), rng)
		if set == nil {
			continue
		}
		found++
		if !IsCompact(g, set) {
			t.Fatalf("Random returned a non-compact set: %v", set)
		}
	}
	if found < 25 {
		t.Fatalf("Random succeeded only %d/50 times", found)
	}
}

func TestRandomOnDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if set := Random(g, 2, xrand.New(3)); set != nil {
		t.Fatalf("Random on disconnected graph should return nil, got %v", set)
	}
}

func TestCompactifyIdentityOnCompact(t *testing.T) {
	g := gen.Cycle(8)
	in := []int{0, 1, 2}
	out := CompactifyScratch(g, in, &Scratch{})
	if len(out) != 3 || out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("compactify changed an already-compact set: %v", out)
	}
}

func TestCompactifyLemma33(t *testing.T) {
	// Lemma 3.3 property: for any connected S with |S| < n/2, K_G(S) is
	// compact and has edge quotient ≤ S's.
	rng := xrand.New(33)
	graphs := []*graph.Graph{
		gen.Mesh(4, 4),
		gen.Torus(4, 4),
		gen.Cycle(12),
		gen.Hypercube(4),
		gen.Barbell(6),
	}
	for gi, g := range graphs {
		n := g.N()
		for trial := 0; trial < 40; trial++ {
			set := randomConnectedSet(g, 1+rng.Intn(n/2-1), rng)
			if len(set) == 0 || len(set) >= (n+1)/2 {
				continue
			}
			k := CompactifyScratch(g, set, &Scratch{})
			if !IsCompact(g, k) {
				t.Fatalf("graph %d: K_G(S) not compact for S=%v → %v", gi, set, k)
			}
			qs := expansion.Evaluate(g, set).EdgeAlpha
			qk := expansion.Evaluate(g, k).EdgeAlpha
			if qk > qs+1e-12 {
				t.Fatalf("graph %d: K quotient %v exceeds S quotient %v (S=%v, K=%v)",
					gi, qk, qs, set, k)
			}
		}
	}
}

// randomConnectedSet grows a connected set of exactly targetSize vertices
// (or fewer if the frontier empties).
func randomConnectedSet(g *graph.Graph, targetSize int, rng *xrand.RNG) []int {
	n := g.N()
	inU := make([]bool, n)
	start := rng.Intn(n)
	inU[start] = true
	set := []int{start}
	frontier := []int{}
	for _, w := range g.Neighbors(start) {
		frontier = append(frontier, int(w))
	}
	for len(set) < targetSize && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if inU[v] {
			continue
		}
		inU[v] = true
		set = append(set, v)
		for _, w := range g.Neighbors(v) {
			if !inU[w] {
				frontier = append(frontier, int(w))
			}
		}
	}
	return set
}

func TestComplementComponents(t *testing.T) {
	g := gen.Path(7)
	inU := expansion.Mask(7, []int{3})
	labels, sizes := new(Scratch).complementComponents(g, inU)
	if len(sizes) != 2 {
		t.Fatalf("complement of middle path node should have 2 components, got %d", len(sizes))
	}
	if labels[3] != -1 {
		t.Fatal("member of U should be unlabeled")
	}
	if sizes[0]+sizes[1] != 6 {
		t.Fatalf("component sizes %v should sum to 6", sizes)
	}
}

func TestEnumeratePanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic above MaxEnumN")
		}
	}()
	Enumerate(gen.Cycle(MaxEnumN+1), func([]int) bool { return true })
}

func BenchmarkEnumerateCompact(b *testing.B) {
	g := gen.Mesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		Enumerate(g, func([]int) bool {
			count++
			return true
		})
	}
}

func BenchmarkCompactify(b *testing.B) {
	g := gen.Torus(16, 16)
	rng := xrand.New(1)
	sets := make([][]int, 32)
	for i := range sets {
		sets[i] = randomConnectedSet(g, 40, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CompactifyScratch(g, sets[i%len(sets)], &Scratch{})
	}
}
