package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	return FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatal("degrees wrong after dedup")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range edge should panic")
			}
		}()
		b.AddEdge(0, 5)
	}()
	b2 := NewBuilder(1)
	b2.Build()
	defer func() {
		if recover() == nil {
			t.Error("reusing a built Builder should panic")
		}
	}()
	b2.Build()
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 || g.MinDegree() != 1 {
		t.Fatalf("max/min degree = %d/%d", g.MaxDegree(), g.MinDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("avg degree = %v", got)
	}
}

func TestHandshakeLemma(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < r.Intn(4*n); i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			t.Fatalf("handshake violated: sum deg=%d, 2m=%d", sum, 2*g.M())
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	d := g.BFSDistances(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	if g.Distance(0, 4) != 4 || g.Distance(2, 2) != 0 {
		t.Fatal("Distance wrong")
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}})
	d := g.BFSDistances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatal("unreachable vertices should have distance -1")
	}
	if g.Distance(0, 3) != -1 {
		t.Fatal("Distance to unreachable should be -1")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	labels, sizes := g.Components()
	if len(sizes) != 4 {
		t.Fatalf("components = %d, want 4", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("3,4 should form their own component")
	}
	if g.GammaLargest() != 3.0/7.0 {
		t.Fatalf("gamma = %v", g.GammaLargest())
	}
	cs := g.ComponentSizes()
	if cs[0] != 3 || cs[1] != 2 || cs[2] != 1 || cs[3] != 1 {
		t.Fatalf("sizes = %v", cs)
	}
}

func TestIsConnected(t *testing.T) {
	if !triangle().IsConnected() {
		t.Fatal("triangle should be connected")
	}
	if FromEdges(2, nil).IsConnected() {
		t.Fatal("two isolated vertices are disconnected")
	}
	if !NewBuilder(0).Build().IsConnected() || !NewBuilder(1).Build().IsConnected() {
		t.Fatal("trivial graphs are connected")
	}
}

func TestEccentricityDiameter(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if g.Eccentricity(2) != 2 {
		t.Fatalf("ecc(2) = %d", g.Eccentricity(2))
	}
	if g.ApproxDiameter(2) != 4 {
		t.Fatalf("diameter = %d", g.ApproxDiameter(2))
	}
}

func TestInduce(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub := g.InduceVertices([]int{1, 2, 3})
	if sub.G.N() != 3 || sub.G.M() != 2 {
		t.Fatalf("induced: n=%d m=%d", sub.G.N(), sub.G.M())
	}
	// Provenance must map back to 1,2,3.
	for i, want := range []int32{1, 2, 3} {
		if sub.Orig[i] != want {
			t.Fatalf("provenance wrong: %v", sub.Orig)
		}
	}
	rem := g.RemoveVertices([]int{0})
	if rem.G.N() != 4 || rem.G.M() != 3 {
		t.Fatalf("removal: n=%d m=%d", rem.G.N(), rem.G.M())
	}
}

func TestRemoveEdges(t *testing.T) {
	g := triangle()
	g2 := g.RemoveEdges([][2]int32{{1, 0}})
	if g2.M() != 2 || g2.HasEdge(0, 1) {
		t.Fatal("RemoveEdges failed")
	}
	if g2.N() != 3 {
		t.Fatal("RemoveEdges must keep vertex set")
	}
}

func TestLargestComponentSub(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	sub := Identity(g).LargestComponentSub()
	if sub.G.N() != 3 {
		t.Fatalf("largest component sub has %d nodes", sub.G.N())
	}
	for _, o := range sub.Orig {
		if o > 2 {
			t.Fatalf("wrong component extracted: %v", sub.Orig)
		}
	}
}

func TestEnumerateConnectedSubgraphsPath(t *testing.T) {
	// Path 0-1-2-3: connected subsets of size 2 are the 3 edges;
	// size 3: {0,1,2}, {1,2,3}.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if c := g.CountConnectedSubgraphs(2, 0); c != 3 {
		t.Fatalf("size-2 count = %d, want 3", c)
	}
	if c := g.CountConnectedSubgraphs(3, 0); c != 2 {
		t.Fatalf("size-3 count = %d, want 2", c)
	}
	if c := g.CountConnectedSubgraphs(4, 0); c != 1 {
		t.Fatalf("size-4 count = %d, want 1", c)
	}
	if c := g.CountConnectedSubgraphs(1, 0); c != 4 {
		t.Fatalf("size-1 count = %d, want 4", c)
	}
}

func TestEnumerateConnectedSubgraphsComplete(t *testing.T) {
	// In K_5 every subset is connected: C(5,k) subsets of size k.
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}})
	wants := map[int]int64{1: 5, 2: 10, 3: 10, 4: 5, 5: 1}
	for k, want := range wants {
		if c := g.CountConnectedSubgraphs(k, 0); c != want {
			t.Fatalf("K5 size-%d count = %d, want %d", k, c, want)
		}
	}
}

// Brute-force reference for connected subgraph counting.
func bruteConnectedCount(g *Graph, k int) int64 {
	n := g.N()
	var count int64
	for mask := 1; mask < 1<<uint(n); mask++ {
		vs := []int{}
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) != k {
			continue
		}
		sub := g.InduceVertices(vs)
		if sub.G.IsConnected() {
			count++
		}
	}
	return count
}

func TestEnumerateAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(6)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		for k := 1; k <= n && k <= 5; k++ {
			want := bruteConnectedCount(g, k)
			got := g.CountConnectedSubgraphs(k, 0)
			if got != want {
				t.Fatalf("trial %d n=%d k=%d: got %d want %d", trial, n, k, got, want)
			}
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	seen := map[string]bool{}
	g.EnumerateConnectedSubgraphs(3, func(vs []int) bool {
		key := ""
		sorted := append([]int(nil), vs...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, v := range sorted {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate subgraph %v", sorted)
		}
		seen[key] = true
		return true
	})
}

func TestEnumerateEarlyStopLimit(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if c := g.CountConnectedSubgraphs(2, 2); c != 2 {
		t.Fatalf("limited count = %d, want 2", c)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {0, 4}})
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	g.ForEachEdge(func(u, v int) {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not a graph")); err == nil {
		t.Fatal("garbage header should error")
	}
	if _, err := Read(bytes.NewBufferString("3 1\n0 9\n")); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	if _, err := Read(bytes.NewBufferString("3 2\n0 1\n")); err == nil {
		t.Fatal("truncated edge list should error")
	}
	// A header over the vertex cap (the 13-byte 3·10⁹ one, or one
	// vertex over) must fail naming the cap, not allocate the CSR.
	for _, in := range []string{"3000000000 0\n", fmt.Sprintf("%d 0\n", MaxVertices+1)} {
		if _, err := Read(bytes.NewBufferString(in)); err == nil || !strings.Contains(err.Error(), "graph.MaxVertices") {
			t.Fatalf("Read(%q): err = %v, want one naming graph.MaxVertices", in, err)
		}
	}
}

// Property: for random masks, Induce preserves exactly the edges with
// both endpoints kept.
func TestQuickInduceEdgeConsistency(t *testing.T) {
	f := func(seed int64, maskBits uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8
		b := NewBuilder(n)
		for i := 0; i < 16; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		keep := make([]bool, n)
		for v := 0; v < n; v++ {
			keep[v] = maskBits&(1<<uint(v)) != 0
		}
		sub := g.Induce(keep)
		wantEdges := 0
		g.ForEachEdge(func(u, v int) {
			if keep[u] && keep[v] {
				wantEdges++
			}
		})
		return sub.G.M() == wantEdges
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	const n = 1 << 14
	r := rand.New(rand.NewSource(1))
	edges := make([][2]int, 4*n)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, edges)
	}
}

func BenchmarkComponents(b *testing.B) {
	const n = 1 << 14
	r := rand.New(rand.NewSource(1))
	bld := NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		bld.AddEdge(r.Intn(n), r.Intn(n))
	}
	g := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Components()
	}
}
