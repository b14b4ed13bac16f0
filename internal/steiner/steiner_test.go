package steiner

import (
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
)

func TestExactTwoTerminalsIsShortestPath(t *testing.T) {
	g := gen.Mesh(5, 5)
	// (0,0) and (4,4): shortest path length 8.
	a := gen.MeshIndex([]int{0, 0}, []int{5, 5})
	b := gen.MeshIndex([]int{4, 4}, []int{5, 5})
	if got := ExactTreeEdgesScratch(g, []int{a, b}, &Scratch{}); got != 8 {
		t.Fatalf("two-terminal Steiner = %d, want 8", got)
	}
}

func TestExactSingleTerminal(t *testing.T) {
	if got := ExactTreeEdgesScratch(gen.Cycle(5), []int{3}, &Scratch{}); got != 0 {
		t.Fatalf("single terminal = %d, want 0", got)
	}
}

func TestExactStarCenter(t *testing.T) {
	// Star: terminals = all leaves; tree must use hub: edges = #leaves.
	g := gen.Star(6)
	if got := ExactTreeEdgesScratch(g, []int{1, 2, 3, 4, 5}, &Scratch{}); got != 5 {
		t.Fatalf("star Steiner = %d, want 5", got)
	}
}

func TestExactSteinerPointUsed(t *testing.T) {
	// Spider: three legs of length 2 from a hub. Terminals = 3 leaf
	// tips; minimum tree = all 3 legs = 6 edges (hub is a Steiner point).
	b := graph.NewBuilder(7)
	// hub 0; legs 1-2, 3-4, 5-6
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	if got := ExactTreeEdgesScratch(g, []int{2, 4, 6}, &Scratch{}); got != 6 {
		t.Fatalf("spider Steiner = %d, want 6", got)
	}
}

func TestExactOnMeshCorners(t *testing.T) {
	// 3x3 mesh, terminals = 4 corners. Minimal Steiner tree: the middle
	// row (2 edges) plus one stub from each corner to it (4 edges) = 6.
	g := gen.Mesh(3, 3)
	dims := []int{3, 3}
	corners := []int{
		gen.MeshIndex([]int{0, 0}, dims),
		gen.MeshIndex([]int{2, 0}, dims),
		gen.MeshIndex([]int{0, 2}, dims),
		gen.MeshIndex([]int{2, 2}, dims),
	}
	if got := ExactTreeEdgesScratch(g, corners, &Scratch{}); got != 6 {
		t.Fatalf("corner Steiner = %d, want 6", got)
	}
}

func TestExactPanicsOnTooManyTerminals(t *testing.T) {
	g := gen.Cycle(20)
	terms := make([]int, MaxExactTerminals+1)
	for i := range terms {
		terms[i] = i
	}
	defer func() {
		if recover() == nil {
			t.Fatal("should panic above terminal budget")
		}
	}()
	ExactTreeEdgesScratch(g, terms, &Scratch{})
}

func TestExactPanicsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	defer func() {
		if recover() == nil {
			t.Fatal("should panic on disconnected terminals")
		}
	}()
	ExactTreeEdgesScratch(g, []int{0, 2}, &Scratch{})
}

func TestApproxContainsTerminalsAndIsTree(t *testing.T) {
	g := gen.Mesh(6, 6)
	terms := []int{0, 5, 30, 35, 14}
	nodes := ApproxTreeScratch(g, terms, &Scratch{})
	inSet := map[int]bool{}
	for _, v := range nodes {
		inSet[v] = true
	}
	for _, term := range terms {
		if !inSet[term] {
			t.Fatalf("terminal %d missing from tree %v", term, nodes)
		}
	}
	sub := g.InduceVertices(nodes)
	if !sub.G.IsConnected() {
		t.Fatal("approx tree must induce a connected subgraph")
	}
}

func TestApproxWithinTwiceExact(t *testing.T) {
	g := gen.Mesh(4, 4)
	cases := [][]int{
		{0, 3, 12, 15},
		{0, 15},
		{1, 7, 13},
		{0, 5, 10, 15, 3},
	}
	for i, terms := range cases {
		exact := ExactTreeEdgesScratch(g, terms, &Scratch{})
		approxNodes := len(ApproxTreeScratch(g, terms, &Scratch{}))
		approxEdges := approxNodes - 1
		if approxEdges < exact {
			t.Fatalf("case %d: approx %d below exact %d (impossible)", i, approxEdges, exact)
		}
		if float64(approxEdges) > 2*float64(exact)+1e-9 {
			t.Fatalf("case %d: approx %d exceeds 2×exact %d", i, approxEdges, exact)
		}
	}
}

func TestApproxSingleTerminal(t *testing.T) {
	nodes := ApproxTreeScratch(gen.Cycle(5), []int{2}, &Scratch{})
	if len(nodes) != 1 || nodes[0] != 2 {
		t.Fatalf("single terminal approx = %v", nodes)
	}
}

func TestApproxPrunesNonTerminalLeaves(t *testing.T) {
	// Terminals adjacent on a path: tree should be exactly the segment
	// between them.
	g := gen.Path(10)
	nodes := ApproxTreeScratch(g, []int{3, 6}, &Scratch{})
	if len(nodes) != 4 {
		t.Fatalf("path segment = %v, want {3,4,5,6}", nodes)
	}
}

func BenchmarkExactSteiner8(b *testing.B) {
	g := gen.Mesh(6, 6)
	terms := []int{0, 5, 30, 35, 14, 21, 2, 33}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExactTreeEdgesScratch(g, terms, &Scratch{})
	}
}

func BenchmarkApproxSteiner(b *testing.B) {
	g := gen.Mesh(16, 16)
	terms := []int{0, 15, 240, 255, 100, 37, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ApproxTreeScratch(g, terms, &Scratch{})
	}
}
