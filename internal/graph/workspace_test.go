package graph

import (
	"math"
	"slices"
	"testing"
)

// torusForTest builds an m×m torus without importing gen (which would
// cycle): vertices r*m+c with wrap-around grid edges.
func torusForTest(m int) *Graph {
	b := NewBuilder(m * m)
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			v := r*m + c
			b.AddEdge(v, ((r+1)%m)*m+c)
			b.AddEdge(v, r*m+(c+1)%m)
		}
	}
	return b.Build()
}

func sameSub(t *testing.T, got, want *Sub, label string) {
	t.Helper()
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		t.Fatalf("%s: got n=%d m=%d, want n=%d m=%d", label,
			got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	for v := 0; v < want.G.N(); v++ {
		gn, wn := got.G.Neighbors(v), want.G.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("%s: vertex %d degree %d, want %d", label, v, len(gn), len(wn))
		}
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("%s: vertex %d neighbor[%d] = %d, want %d", label, v, i, gn[i], wn[i])
			}
		}
		if got.Orig[v] != want.Orig[v] {
			t.Fatalf("%s: Orig[%d] = %d, want %d", label, v, got.Orig[v], want.Orig[v])
		}
	}
}

// TestInduceIntoMatchesInduce checks the workspace path is semantically
// identical to the allocating path, including when the workspace is
// reused across many different masks and graphs.
func TestInduceIntoMatchesInduce(t *testing.T) {
	g := torusForTest(6)
	ws := NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		keep := make([]bool, g.N())
		for v := range keep {
			keep[v] = (v*2654435761+trial*40503)%7 != 0
		}
		want := func() *Sub { // reference: fresh-workspace wrapper
			mask := append([]bool(nil), keep...)
			return g.Induce(mask)
		}()
		got := g.InduceInto(ws, keep)
		sameSub(t, got, want, "InduceInto")
	}
}

// TestWorkspaceChainDoesNotClobberParent pins the two-slot ring rule: a
// build may read the immediately preceding build as its parent.
func TestWorkspaceChainDoesNotClobberParent(t *testing.T) {
	g := torusForTest(6)
	ws := NewWorkspace()
	// Chain: g → a (drop vertex 0) → b (largest component) → c (drop one more).
	a := g.RemoveVerticesInto(ws, []int{0})
	wantA := g.RemoveVertices([]int{0})
	b := a.LargestComponentSubInto(ws)
	wantB := wantA.LargestComponentSub()
	sameSub(t, b, wantB, "chain b")
	c := b.G.RemoveVerticesInto(ws, []int{1})
	wantC := wantB.G.RemoveVertices([]int{1})
	sameSub(t, c, wantC, "chain c")
}

// TestFilterEdgesIntoMatchesRemoveEdges checks the edge-fault fast path
// against the allocating RemoveEdges, including drop-call order.
func TestFilterEdgesIntoMatchesRemoveEdges(t *testing.T) {
	g := torusForTest(5)
	ws := NewWorkspace()
	var order [][2]int
	drop := func(u, v int) bool {
		order = append(order, [2]int{u, v})
		return (u+3*v)%4 == 0
	}
	sub, dropped := g.FilterEdgesInto(ws, drop)
	var failed [][2]int32
	g.ForEachEdge(func(u, v int) {
		if (u+3*v)%4 == 0 {
			failed = append(failed, [2]int32{int32(u), int32(v)})
		}
	})
	want := g.RemoveEdges(failed)
	if dropped != len(failed) {
		t.Fatalf("dropped %d edges, want %d", dropped, len(failed))
	}
	sameSub(t, sub, Identity(want), "FilterEdgesInto")
	// drop must have been called once per edge in ForEachEdge order.
	if len(order) != g.M() {
		t.Fatalf("drop called %d times, want %d", len(order), g.M())
	}
	i := 0
	g.ForEachEdge(func(u, v int) {
		if order[i] != [2]int{u, v} {
			t.Fatalf("drop call %d = %v, want {%d,%d}", i, order[i], u, v)
		}
		i++
	})
}

// TestComponentsIntoMatchesComponents checks the masked labeller on
// the parent against labelling the induced subgraph: the same sizes in
// the same order, and each kept vertex's label equal to its subgraph
// vertex's label, with dropped vertices at -1.
func TestComponentsIntoMatchesComponents(t *testing.T) {
	g := torusForTest(4)
	removed := []int{0, 1, 2, 3, 5, 10}
	sub := g.RemoveVertices(removed)
	keep := make([]bool, g.N())
	for _, v := range sub.Orig {
		keep[v] = true
	}
	ws := NewWorkspace()
	gl, gs := g.ComponentsInto(ws, keep)
	wl, wsz := sub.G.Components()
	if !slices.Equal(gs, wsz) {
		t.Fatalf("sizes %v, want %v", gs, wsz)
	}
	for i, v := range sub.Orig {
		if gl[v] != wl[i] {
			t.Fatalf("label[%d] = %d, want %d", v, gl[v], wl[i])
		}
	}
	for _, v := range removed {
		if gl[v] != -1 {
			t.Fatalf("removed vertex %d has label %d, want -1", v, gl[v])
		}
	}
}

// TestBFSDistancesIntoMatches checks the distance buffer path, and the
// BFS tree that BFS writes when asked for parents: src is the root,
// and every other reached vertex hangs off a neighbour one hop closer.
func TestBFSDistancesIntoMatches(t *testing.T) {
	g := torusForTest(5)
	sub := g.RemoveVertices([]int{7, 8, 9})
	ws := NewWorkspace()
	n := sub.G.N()
	dist, parent := make([]int32, n), make([]int32, n)
	var queue []int32
	for src := 0; src < n; src += 5 {
		got := sub.G.BFSDistancesInto(ws, src)
		want := sub.G.BFSDistances(src)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] from %d = %d, want %d", v, src, got[v], want[v])
			}
		}
		queue = sub.G.BFS(src, dist, parent, queue)
		if parent[src] != -1 {
			t.Fatalf("parent[src=%d] = %d, want -1", src, parent[src])
		}
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("BFS dist[%d] from %d = %d, want %d", v, src, dist[v], want[v])
			}
			p := parent[v]
			switch {
			case v == src:
			case dist[v] < 0:
				if p != -1 {
					t.Fatalf("unreached %d has parent %d", v, p)
				}
			case p < 0 || !sub.G.HasEdge(v, int(p)) || dist[p] != dist[v]-1:
				t.Fatalf("from %d: parent[%d] = %d is not a neighbour one hop closer", src, v, p)
			}
		}
	}
}

// TestWorkspaceSteadyStateAllocs pins the zero-allocation property of
// the warm trial path: induce + gamma on a reused workspace.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	g := torusForTest(8)
	ws := NewWorkspace()
	keep := make([]bool, g.N())
	trial := func(r int) {
		for v := range keep {
			keep[v] = (v+r)%9 != 0
		}
		sub := g.InduceInto(ws, keep)
		_ = sub.G.GammaLargestInto(ws)
	}
	trial(0) // warm up buffers
	trial(1)
	allocs := testing.AllocsPerRun(50, func() { trial(2) })
	if allocs > 0 {
		t.Errorf("warm trial path allocates %.1f times per trial, want 0", allocs)
	}
}

// TestEmptyGraphWorkspacePaths exercises the degenerate cases.
func TestEmptyGraphWorkspacePaths(t *testing.T) {
	empty := NewBuilder(0).Build()
	ws := NewWorkspace()
	if got := empty.GammaLargestInto(ws); got != 0 {
		t.Errorf("empty gamma = %v, want 0", got)
	}
	sub := empty.InduceInto(ws, nil)
	if sub.G.N() != 0 {
		t.Errorf("empty induce has %d vertices", sub.G.N())
	}
	lc := sub.LargestComponentSubInto(ws)
	if lc.G.N() != 0 {
		t.Errorf("empty largest-component sub has %d vertices", lc.G.N())
	}
}

// TestEpochWrapClearsWholeStampArray pins the wrap-around reset of the
// epoch-stamped marks. FilterEdgesInto stamps over the 2m adjacency
// slots, FilteredComponentSizesInto over only the n vertices; a wrap
// during the latter must clear every stamp, or the restarted epoch
// reaches the old slot stamps and a later FilterEdgesInto that drops
// nothing loses the edges they mark.
func TestEpochWrapClearsWholeStampArray(t *testing.T) {
	b := NewBuilder(8)
	for v := 0; v < 8; v++ {
		b.AddEdge(v, (v+1)%8)
	}
	g := b.Build()
	ws := NewWorkspace()
	drop67 := func(u, v int) bool { return u == 6 && v == 7 }
	for i := 0; i < 2; i++ {
		if sub, dropped := g.FilterEdgesInto(ws, drop67); dropped != 1 || sub.G.M() != 7 {
			t.Fatalf("dropping {6,7}: %d dropped, m = %d; want 1, 7", dropped, sub.G.M())
		}
	}
	ws.epoch = math.MaxUint32
	dropNone := func(u, v int) bool { return false }
	if sizes, dropped := g.FilteredComponentSizesInto(ws, dropNone); dropped != 0 || !slices.Equal(sizes, []int{8}) {
		t.Fatalf("edge pass over the 8-cycle = %v with %d dropped, want [8] with 0", sizes, dropped)
	}
	sub, dropped := g.FilterEdgesInto(ws, dropNone)
	if dropped != 0 || sub.G.M() != 8 {
		t.Fatalf("dropping nothing after the wrap: %d dropped, m = %d; want 0, 8", dropped, sub.G.M())
	}
}
