package graph

import (
	"math/rand"
	"testing"
)

// refEccFar computes (eccentricity, smallest farthest vertex) from a
// plain BFS distance array, as the reference for the frontier version.
func refEccFar(g *Graph, src int) (int, int) {
	dist := g.BFSDistances(src)
	ecc, far := 0, src
	for v, d := range dist {
		if int(d) > ecc {
			ecc, far = int(d), v
		}
	}
	return ecc, far
}

func pathGraphN(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func gridGraph(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols)
			}
		}
	}
	return b.Build()
}

func randomGraph(n int, p float64, r *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestEccentricityFrontierMatchesBFS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	graphs := []*Graph{
		pathGraphN(1),
		pathGraphN(2),
		pathGraphN(65), // spans a word boundary
		gridGraph(9, 9),
		randomGraph(120, 0.05, r), // likely disconnected
		randomGraph(120, 0.3, r),  // dense: exercises bottom-up steps
	}
	ws := NewWorkspace()
	for gi, g := range graphs {
		for src := 0; src < g.N(); src++ {
			wantEcc, wantFar := refEccFar(g, src)
			gotEcc, gotFar := g.EccentricityFrontierInto(ws, src)
			if gotEcc != wantEcc || gotFar != wantFar {
				t.Fatalf("graph %d src %d: frontier (ecc,far)=(%d,%d), reference (%d,%d)",
					gi, src, gotEcc, gotFar, wantEcc, wantFar)
			}
			if gotEcc != g.Eccentricity(src) {
				t.Fatalf("graph %d src %d: frontier ecc %d != Eccentricity %d",
					gi, src, gotEcc, g.Eccentricity(src))
			}
		}
	}
}

// TestEccentricityFrontierDisconnected pins the contract on components:
// the traversal never leaves src's component, so an isolated vertex has
// eccentricity 0 with itself as the farthest vertex.
func TestEccentricityFrontierDisconnected(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}}) // 3 and 4 isolated
	ws := NewWorkspace()
	if ecc, far := g.EccentricityFrontierInto(ws, 3); ecc != 0 || far != 3 {
		t.Fatalf("isolated vertex: (ecc,far)=(%d,%d), want (0,3)", ecc, far)
	}
	if ecc, far := g.EccentricityFrontierInto(ws, 0); ecc != 2 || far != 2 {
		t.Fatalf("path component: (ecc,far)=(%d,%d), want (2,2)", ecc, far)
	}
}

// TestEccentricityFrontierWorkspaceReuse runs differently-sized graphs
// through one Workspace to exercise the Resize path of the bitset
// scratch.
func TestEccentricityFrontierWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	for _, n := range []int{200, 3, 64, 1000, 65} {
		g := pathGraphN(n)
		ecc, far := g.EccentricityFrontierInto(ws, 0)
		if ecc != n-1 || far != n-1 {
			t.Fatalf("path n=%d: (ecc,far)=(%d,%d), want (%d,%d)", n, ecc, far, n-1, n-1)
		}
	}
}

func TestFromSortedAdjacency(t *testing.T) {
	// The 4-cycle 0-1-2-3-0.
	offsets := []int32{0, 2, 4, 6, 8}
	adj := []int32{1, 3, 0, 2, 1, 3, 0, 2}
	g := FromSortedAdjacency(offsets, adj)
	want := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != want.N() || g.M() != want.M() {
		t.Fatalf("adopted graph %v, want %v", g, want)
	}
	for v := 0; v < 4; v++ {
		gn, wn := g.Neighbors(v), want.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d: neighbors %v, want %v", v, gn, wn)
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d: neighbors %v, want %v", v, gn, wn)
			}
		}
	}

	for _, bad := range []struct {
		name    string
		offsets []int32
		adj     []int32
	}{
		{"unsorted", []int32{0, 2, 4}, []int32{1, 1, 0, 0}},
		{"self-loop", []int32{0, 1, 2}, []int32{0, 0}},
		{"out-of-range", []int32{0, 1, 2}, []int32{2, 0}},
		{"non-monotone", []int32{0, 2, 1}, []int32{1}},
		{"bad-total", []int32{0, 1, 1}, []int32{1, 0}},
		{"odd-length", []int32{0, 1}, []int32{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromSortedAdjacency did not panic", bad.name)
				}
			}()
			FromSortedAdjacency(bad.offsets, bad.adj)
		}()
	}
}

func BenchmarkEccentricityFrontier(b *testing.B) {
	g := gridGraph(256, 256)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EccentricityFrontierInto(ws, 0)
	}
}

func BenchmarkEccentricityQueue(b *testing.B) {
	g := gridGraph(256, 256)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := g.BFSDistancesInto(ws, 0)
		ecc := int32(0)
		for _, d := range dist {
			if d > ecc {
				ecc = d
			}
		}
	}
}
