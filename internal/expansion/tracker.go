package expansion

import "faultexp/internal/graph"

// Tracker is a vertex set U of one graph kept with |U|, |Γ(U)| and
// cut(U) current: Add and Remove cost O(deg v), Reset O(n + Σ deg) over
// the given set. It is the one incremental counter of a set's boundary
// and cut; BoundarySize and EdgeBoundarySize are the from-scratch
// reference it must agree with. The zero value is ready for Reset;
// buffers grow on demand and are retained across graphs. Not safe for
// concurrent use.
type Tracker struct {
	g        *graph.Graph
	in       []bool
	cnt      []int32 // #neighbours inside U, for every vertex
	size     int
	boundary int
	cut      int
}

// Reset makes U the given vertex list (which must be duplicate-free) of
// g.
func (t *Tracker) Reset(g *graph.Graph, set []int) {
	n := g.N()
	if cap(t.in) < n {
		t.in = make([]bool, n)
		t.cnt = make([]int32, n)
	}
	t.in = t.in[:n]
	t.cnt = t.cnt[:n]
	clear(t.in)
	clear(t.cnt)
	t.g = g
	t.size, t.boundary, t.cut = 0, 0, 0
	for _, v := range set {
		t.Add(v)
	}
}

// Add puts v, which must be outside U, into U.
func (t *Tracker) Add(v int) {
	inside := int(t.cnt[v])
	if inside > 0 {
		t.boundary-- // v was a boundary vertex
	}
	t.cut += t.g.Degree(v) - 2*inside
	for _, w := range t.g.Neighbors(v) {
		if t.cnt[w] == 0 && !t.in[w] {
			t.boundary++
		}
		t.cnt[w]++
	}
	t.in[v] = true
	t.size++
}

// Remove takes v, which must be in U, out of U.
func (t *Tracker) Remove(v int) {
	t.in[v] = false
	t.size--
	inside := int(t.cnt[v])
	t.cut -= t.g.Degree(v) - 2*inside
	for _, w := range t.g.Neighbors(v) {
		t.cnt[w]--
		if t.cnt[w] == 0 && !t.in[w] {
			t.boundary--
		}
	}
	if inside > 0 {
		t.boundary++ // v is now a boundary vertex
	}
}

// Contains reports whether v is in U.
func (t *Tracker) Contains(v int) bool { return t.in[v] }

// Touches reports whether v has a neighbour in U.
func (t *Tracker) Touches(v int) bool { return t.cnt[v] > 0 }

// Size returns |U|.
func (t *Tracker) Size() int { return t.size }

// Boundary returns |Γ(U)|, the vertices outside U adjacent to U.
func (t *Tracker) Boundary() int { return t.boundary }

// Cut returns cut(U), the edges with exactly one endpoint in U.
func (t *Tracker) Cut() int { return t.cut }
