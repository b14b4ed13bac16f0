// Package graph implements the static undirected graph type shared by the
// whole library, in compressed-sparse-row (CSR) form: a single offsets
// array and a single adjacency array. Graphs are immutable after
// construction, which keeps the fault-injection and pruning pipelines
// simple — a fault pattern or a culled set produces a *new* induced
// subgraph rather than mutating shared state, so experiments can fan out
// over goroutines without locks.
//
// The package also provides the traversal and component machinery the
// paper's algorithms need (BFS, connected components, induced subgraphs
// with node provenance, connected-subgraph enumeration for Claim 3.2).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected graph in CSR form. Vertices are
// integers [0, N()). Parallel edges and self-loops are removed at build
// time; adjacency lists are sorted ascending.
type Graph struct {
	offsets []int32
	adj     []int32
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the (sorted) adjacency list of v as a shared slice;
// callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// MaxDegree returns the maximum degree δ (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// MinDegree returns the minimum degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if dv := g.Degree(v); dv < d {
			d = dv
		}
	}
	return d
}

// AvgDegree returns the average degree 2M/N (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Edges returns all undirected edges with u < v.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.M())
	g.ForEachEdge(func(u, v int) {
		out = append(out, [2]int32{int32(u), int32(v)})
	})
	return out
}

// String returns a short description such as "graph(n=64, m=192)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped. A Builder must not be reused after
// Build.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	built bool
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Build finalizes the graph: edges are symmetrized, deduplicated, and the
// adjacency lists sorted. The builder becomes unusable afterwards.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder reused after Build")
	}
	b.built = true
	n := b.n
	deg := make([]int32, n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, 2*len(b.us))
	pos := make([]int32, n)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		adj[deg[u]+pos[u]] = v
		pos[u]++
		adj[deg[v]+pos[v]] = u
		pos[v]++
	}
	// Sort each adjacency list and drop duplicates in place.
	offsets := make([]int32, n+1)
	w := int32(0)
	for u := 0; u < n; u++ {
		offsets[u] = w
		lo, hi := deg[u], deg[u]+pos[u]
		lst := adj[lo:hi]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		var prev int32 = -1
		for _, x := range lst {
			if x != prev {
				adj[w] = x
				w++
				prev = x
			}
		}
	}
	offsets[n] = w
	return &Graph{offsets: offsets, adj: adj[:w:w]}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// FromSortedAdjacency adopts an already-correct CSR pair as a Graph,
// for generators that can emit sorted adjacency directly and must not
// pay the Builder's 16-bytes-per-edge staging arrays at million-vertex
// sizes. The arrays are validated in one linear pass (monotone offsets,
// in-range sorted strictly-increasing neighbor lists, no self-loops,
// symmetric degree sum) and then owned by the Graph — the caller must
// not retain or modify them. Symmetry of individual edges is the
// caller's contract; checking it here would cost a second pass with
// binary searches, which is exactly what this constructor exists to
// avoid.
func FromSortedAdjacency(offsets, adj []int32) *Graph {
	if len(offsets) == 0 {
		panic("graph: FromSortedAdjacency needs offsets of length n+1")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 || int(offsets[n]) != len(adj) {
		panic(fmt.Sprintf("graph: offsets must run 0..len(adj)=%d, got [%d..%d]",
			len(adj), offsets[0], offsets[n]))
	}
	if len(adj)%2 != 0 {
		panic("graph: odd adjacency length cannot be a symmetric undirected graph")
	}
	for u := 0; u < n; u++ {
		if offsets[u+1] < offsets[u] {
			panic(fmt.Sprintf("graph: offsets not monotone at vertex %d", u))
		}
		prev := int32(-1)
		for _, w := range adj[offsets[u]:offsets[u+1]] {
			if w < 0 || int(w) >= n {
				panic(fmt.Sprintf("graph: neighbor %d of vertex %d out of range [0,%d)", w, u, n))
			}
			if int(w) == u {
				panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
			}
			if w <= prev {
				panic(fmt.Sprintf("graph: adjacency of vertex %d not strictly increasing", u))
			}
			prev = w
		}
	}
	return &Graph{offsets: offsets, adj: adj}
}
