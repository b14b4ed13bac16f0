// Package gen constructs every graph family the paper's theorems quantify
// over: d-dimensional meshes and tori (Theorem 3.6, §4), hypercubes and
// butterflies (§1.1 percolation survey), constant-degree expanders
// (Theorems 2.3 and 3.1 start from one), the chain-replacement
// construction of Theorem 2.3, de Bruijn and shuffle-exchange networks
// (the paper's open problems), random graphs, and multibutterflies
// (Leighton–Maggs baseline).
//
// All generators are deterministic given their parameters (and, for
// randomized families, an explicit *xrand.RNG), so every experiment in
// the harness is reproducible.
package gen

import (
	"fmt"

	"faultexp/internal/graph"
)

// Mesh returns the d-dimensional mesh with the given side lengths; the
// vertex count is the product of dims. Vertices are indexed in
// mixed-radix order (dims[0] fastest); use MeshCoords/MeshIndex to
// convert.
func Mesh(dims ...int) *graph.Graph {
	return lattice(dims, false)
}

// Torus returns the d-dimensional torus (mesh with wraparound edges).
func Torus(dims ...int) *graph.Graph {
	return lattice(dims, true)
}

// CAN returns the steady-state topology of a content-addressable network
// overlay with the given dimension and per-dimension side: a d-dimensional
// torus (the paper's §4 observes that CAN behaves like a d-dimensional
// mesh in its steady state).
func CAN(dim, side int) *graph.Graph {
	dims := make([]int, dim)
	for i := range dims {
		dims[i] = side
	}
	return Torus(dims...)
}

// lattice builds a mesh or torus directly in CSR form. The Builder path
// stages 16 bytes per edge (us/vs plus the scatter arrays) and sorts
// every adjacency list; for a lattice, both are avoidable — each
// vertex's full neighbor list is known locally from its mixed-radix
// coordinates, so the CSR arrays are filled in one pass with a tiny
// per-vertex insertion sort over ≤ 2·d candidates. At the
// million-vertex sizes of the sampled-precision tier this halves the
// peak build footprint, which is exactly when it matters.
func lattice(dims []int, wrap bool) *graph.Graph {
	if len(dims) == 0 {
		panic("gen: lattice needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("gen: invalid lattice side %d", d))
		}
		n *= d
	}
	stride := make([]int, len(dims))
	s := 1
	for i, d := range dims {
		stride[i] = s
		s *= d
	}
	// Directed adjacency entries per dimension: every vertex has a
	// forward edge except the last layer (which instead wraps when the
	// side is > 2 — a side of 2 would duplicate the forward edge).
	entries := int64(0)
	for _, d := range dims {
		switch {
		case d == 1:
			// no edges in a degenerate dimension
		case wrap && d > 2:
			entries += 2 * int64(n)
		default:
			entries += 2 * int64(n) / int64(d) * int64(d-1)
		}
	}
	offsets := make([]int32, n+1)
	adj := make([]int32, entries)
	buf := make([]int32, 0, 2*len(dims))
	coord := make([]int, len(dims))
	pos := 0
	for v := 0; v < n; v++ {
		buf = buf[:0]
		for i, d := range dims {
			c, s := coord[i], stride[i]
			if c > 0 {
				buf = append(buf, int32(v-s))
			} else if wrap && d > 2 {
				buf = append(buf, int32(v+(d-1)*s))
			}
			if c+1 < d {
				buf = append(buf, int32(v+s))
			} else if wrap && d > 2 {
				buf = append(buf, int32(v-(d-1)*s))
			}
		}
		// Insertion sort: wrap edges land out of order, and cross-
		// dimension magnitudes are distinct, so the list has no
		// duplicates to drop.
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		pos += copy(adj[pos:], buf)
		offsets[v+1] = int32(pos)
		// increment mixed-radix counter
		for i := range coord {
			coord[i]++
			if coord[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
	}
	return graph.FromSortedAdjacency(offsets, adj)
}

// MeshCoords converts a vertex index to lattice coordinates for the given
// dims (dims[0] is the fastest-varying coordinate).
func MeshCoords(v int, dims []int) []int {
	return MeshCoordsInto(v, dims, make([]int, len(dims)))
}

// MeshCoordsInto is MeshCoords writing into buf, which must have length
// len(dims).
func MeshCoordsInto(v int, dims []int, buf []int) []int {
	for i, d := range dims {
		buf[i] = v % d
		v /= d
	}
	return buf
}

// MeshIndex converts lattice coordinates back to a vertex index.
func MeshIndex(c []int, dims []int) int {
	v := 0
	stride := 1
	for i, d := range dims {
		v += c[i] * stride
		stride *= d
	}
	return v
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 30 {
		panic("gen: hypercube dimension out of range")
	}
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			w := v ^ (1 << uint(i))
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Cycle returns the n-cycle (n ≥ 3); for n < 3 it returns a path.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.Build()
}

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with vertex 0 as the hub.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Barbell returns two K_k cliques joined by a single bridge edge — the
// canonical planted-bottleneck graph used to test cut finders and the
// Upfal-baseline experiment (E11).
func Barbell(k int) *graph.Graph {
	b := graph.NewBuilder(2 * k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
			b.AddEdge(k+u, k+v)
		}
	}
	b.AddEdge(k-1, k)
	return b.Build()
}
