// Package ufind implements union–find (disjoint set union) with union by
// size and path halving. It serves the incremental passes: the coupled
// rate walk and the Newman–Ziff percolation sweeps, where a single sweep
// performs O(n + m) unions and finds. One-shot component passes do not
// use it: graph.ComponentsInto labels by DFS, and the iid-edge pass runs
// Rem's union–find on its own parent array.
//
// Beyond the classic operations, the structure tracks the size of the
// largest component and the number of live components incrementally,
// because percolation observables (γ(G^(p)) in the paper's notation — the
// fraction of nodes in the largest component) are sampled after every
// single union.
package ufind

// DSU is a disjoint-set-union structure over elements [0, n).
type DSU struct {
	parent  []int32
	size    []int32
	active  []bool
	largest int32
	count   int   // number of active components
	sumSq   int64 // sum of squared component sizes over active components
}

// New returns a DSU over n elements, all initially active singletons.
func New(n int) *DSU {
	d := &DSU{}
	d.Reset(n)
	return d
}

// Reset reinitializes the structure over n elements, all active
// singletons, reusing the existing arrays when they are large enough —
// the incremental-sweep loops call this once per realization so the
// steady-state path allocates nothing.
func (d *DSU) Reset(n int) {
	d.grow(n)
	for i := 0; i < n; i++ {
		d.parent[i] = int32(i)
		d.size[i] = 1
		d.active[i] = true
	}
	d.count = n
	d.largest = 0
	if n > 0 {
		d.largest = 1
	}
	d.sumSq = int64(n)
}

// NewInactive returns a DSU over n elements where every element starts
// deactivated — used by site-percolation sweeps that occupy one node at a
// time.
func NewInactive(n int) *DSU {
	d := &DSU{}
	d.ResetInactive(n)
	return d
}

// ResetInactive reinitializes the structure over n elements, all
// deactivated, reusing the existing arrays when possible (see Reset).
func (d *DSU) ResetInactive(n int) {
	d.grow(n)
	for i := 0; i < n; i++ {
		d.parent[i] = int32(i)
		d.size[i] = 0
		d.active[i] = false
	}
	d.count = 0
	d.largest = 0
	d.sumSq = 0
}

// grow resizes the backing arrays to exactly n elements, reallocating
// only when the current capacity is insufficient.
func (d *DSU) grow(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
		d.size = make([]int32, n)
		d.active = make([]bool, n)
		return
	}
	d.parent = d.parent[:n]
	d.size = d.size[:n]
	d.active = d.active[:n]
}

// Activate marks element i as occupied (a singleton component). It is a
// no-op if i is already active.
func (d *DSU) Activate(i int) {
	if d.active[i] {
		return
	}
	d.active[i] = true
	d.parent[i] = int32(i)
	d.size[i] = 1
	d.count++
	d.sumSq++
	if d.largest < 1 {
		d.largest = 1
	}
}

// ActivateJoin occupies v and joins it to every already-occupied
// element of nbrs (v's neighbours) — one step of a site-percolation
// sweep. v's root is carried from one union to the next, so each
// occupied neighbour costs one Find.
func (d *DSU) ActivateJoin(v int, nbrs []int32) {
	d.Activate(v)
	rv := int32(d.Find(v))
	for _, w := range nbrs {
		if !d.active[w] {
			continue
		}
		if rw := int32(d.Find(int(w))); rw != rv {
			rv = d.link(rv, rw)
		}
	}
}

// Active reports whether element i is occupied.
func (d *DSU) Active(i int) bool { return d.active[i] }

// Find returns the representative of i's component, with path halving.
func (d *DSU) Find(i int) int {
	p := int32(i)
	for d.parent[p] != p {
		d.parent[p] = d.parent[d.parent[p]]
		p = d.parent[p]
	}
	return int(p)
}

// Union merges the components of a and b. Both must be active.
// It reports whether a merge happened (false if already joined).
func (d *DSU) Union(a, b int) bool {
	ra, rb := int32(d.Find(a)), int32(d.Find(b))
	if ra == rb {
		return false
	}
	d.link(ra, rb)
	return true
}

// link merges the components of the distinct roots ra and rb, the
// smaller under the larger (ra on a tie), and returns the merged root.
func (d *DSU) link(ra, rb int32) int32 {
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	// (a+b)² = a² + b² + 2ab, so merging adds 2ab to the sum of squares.
	d.sumSq += 2 * int64(d.size[ra]) * int64(d.size[rb])
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	if d.size[ra] > d.largest {
		d.largest = d.size[ra]
	}
	d.count--
	return ra
}

// Connected reports whether a and b are in the same component.
func (d *DSU) Connected(a, b int) bool {
	if !d.active[a] || !d.active[b] {
		return false
	}
	return d.Find(a) == d.Find(b)
}

// ComponentSize returns the size of i's component (0 if inactive).
func (d *DSU) ComponentSize(i int) int {
	if !d.active[i] {
		return 0
	}
	return int(d.size[d.Find(i)])
}

// Largest returns the size of the largest component.
func (d *DSU) Largest() int { return int(d.largest) }

// Components returns the number of active components.
func (d *DSU) Components() int { return d.count }

// SumSquares returns the sum of squared component sizes over the active
// components, maintained incrementally — Σ s_i². Dividing by n² gives
// the fragmentation index Σ (s_i/n)² sampled by the shatter measure.
func (d *DSU) SumSquares() int64 { return d.sumSq }

// Gamma returns the fraction of the full universe [0,n) contained in the
// largest component — the paper's γ(G) observable.
func (d *DSU) Gamma() float64 {
	if len(d.parent) == 0 {
		return 0
	}
	return float64(d.largest) / float64(len(d.parent))
}
