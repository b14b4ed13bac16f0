package graph

// This file implements the per-worker Workspace: reusable scratch memory
// for the trial hot path of the sweep engine. A Monte-Carlo trial loop
// (draw faults → count the faulted graph's components, or build the
// surviving subgraph → measure) used to allocate a fresh CSR, queue, and
// label array per trial; with a Workspace, all of that memory is owned
// by the worker and reused, so the steady-state trial path is
// (near-)zero-allocation. Measures that need only component sizes never
// build the survivor: ComponentsInto, the one component labeller, walks
// the parent CSR under a keep mask, and FilteredComponentSizesInto
// unions the kept edges.
//
// Ownership rules (enforced by convention, documented in README):
//
//   - One Workspace per worker goroutine. A Workspace must never be
//     shared between goroutines; there is no internal locking.
//   - Workspace-built graphs live in a two-slot ring: a build never
//     clobbers the graph it reads from (the parent), but it may clobber
//     ANY other workspace-built graph — including the most recent one,
//     when the build's parent is an older slot graph. Hold at most one
//     workspace-built graph across a build (the one being built from);
//     copy out anything else that must survive.
//   - The allocating APIs (Induce, Components, BFSDistances, …) are thin
//     wrappers that run the same code on a throwaway Workspace, so the
//     returned slices are uniquely owned and safe to retain.

import "slices"

// csrSlot is one reusable home for a workspace-built graph: the CSR
// arrays plus the Graph/Sub headers returned to callers.
type csrSlot struct {
	offsets []int32
	adj     []int32
	orig    []int32
	g       Graph
	sub     Sub
}

// Workspace is reusable per-worker scratch for fault injection,
// subgraph construction, and traversal. The zero value is ready to use;
// buffers grow on demand and are retained across calls.
type Workspace struct {
	// visited is an epoch-stamped mark array: visited[i] == epoch means
	// "marked in the current pass", so clearing is O(1) (bump the epoch)
	// instead of O(2m) per trial. Only FilterEdgesInto stamps: it marks
	// the adjacency slots of the edges it drops.
	visited []uint32
	epoch   uint32

	queue  []int32 // BFS/DFS frontier
	labels []int32 // component labels
	parent []int32 // FilteredComponentSizesInto's union–find forest
	sizes  []int   // component sizes
	dist   []int32 // BFS hop distances
	mask   []bool  // keep/member masks
	newID  []int32 // parent-vertex → subgraph-vertex remap

	slots [2]csrSlot
	cur   int

	front frontierScratch // bitset-BFS state (see frontier.go)
}

// NewWorkspace returns an empty Workspace. The zero value is also valid;
// the constructor exists for call-site clarity.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow32 resizes s to length n, reallocating only when capacity is
// exceeded. Contents are unspecified.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Mask returns a ws-owned []bool of length n with unspecified contents.
// It is the scratch fault models use to build keep masks without
// allocating; the slice is invalidated by the next Mask call.
func (ws *Workspace) Mask(n int) []bool {
	if cap(ws.mask) < n {
		ws.mask = make([]bool, n)
	}
	ws.mask = ws.mask[:n]
	return ws.mask
}

// SetMask is Mask(n) set true exactly on set's members: the keep mask
// that labels or induces the subgraph on set.
func (ws *Workspace) SetMask(n int, set []int) []bool {
	keep := ws.Mask(n)
	clear(keep)
	for _, v := range set {
		keep[v] = true
	}
	return keep
}

// beginVisit starts a new pass over an index space of size n (a
// graph's 2m adjacency slots): it grows the stamp array if needed and
// bumps the epoch so every index reads as unmarked.
func (ws *Workspace) beginVisit(n int) {
	if cap(ws.visited) < n {
		ws.visited = make([]uint32, n)
		ws.epoch = 0
	}
	ws.visited = ws.visited[:n]
	ws.epoch++
	if ws.epoch == 0 {
		// Wrapped after ~4G passes: hard reset. Clear the whole
		// capacity, not just [:n] — passes over a larger graph's slots
		// left stamps past n that the restarted epoch would otherwise
		// reach.
		clear(ws.visited[:cap(ws.visited)])
		ws.epoch = 1
	}
}

func (ws *Workspace) seen(i int32) bool { return ws.visited[i] == ws.epoch }
func (ws *Workspace) mark(i int32)      { ws.visited[i] = ws.epoch }

// nextSlot rotates the two-slot ring and returns the slot to build into,
// guaranteeing the slot does not back the parent graph being read.
func (ws *Workspace) nextSlot(parent *Graph) *csrSlot {
	if parent == &ws.slots[ws.cur].g {
		ws.cur ^= 1
	}
	slot := &ws.slots[ws.cur]
	ws.cur ^= 1
	return slot
}

// InduceInto is Induce built entirely from ws-owned memory: the returned
// Sub (graph, adjacency, provenance) lives in a workspace slot and is
// valid until a later workspace build claims that slot (see the
// ownership rules above — only the parent of a build is protected).
// Unlike the Builder path, induction needs no sorting: parent adjacency
// is sorted and the vertex remap is monotone, so sortedness is
// inherited.
func (g *Graph) InduceInto(ws *Workspace, keep []bool) *Sub {
	if len(keep) != g.N() {
		panic("graph: Induce mask length mismatch")
	}
	n := g.N()
	slot := ws.nextSlot(g)
	newID := grow32(ws.newID, n)
	ws.newID = newID
	orig := slot.orig[:0]
	for v := 0; v < n; v++ {
		if keep[v] {
			newID[v] = int32(len(orig))
			orig = append(orig, int32(v))
		} else {
			newID[v] = -1
		}
	}
	slot.orig = orig
	nn := len(orig)
	offsets := grow32(slot.offsets, nn+1)
	slot.offsets = offsets
	offsets[0] = 0
	total := int32(0)
	for i, ov := range orig {
		for _, w := range g.Neighbors(int(ov)) {
			if keep[w] {
				total++
			}
		}
		offsets[i+1] = total
	}
	adj := grow32(slot.adj, int(total))
	slot.adj = adj
	idx := 0
	for _, ov := range orig {
		for _, w := range g.Neighbors(int(ov)) {
			if keep[w] {
				adj[idx] = newID[w]
				idx++
			}
		}
	}
	slot.g = Graph{offsets: offsets, adj: adj}
	slot.sub = Sub{G: &slot.g, Orig: orig}
	return &slot.sub
}

// RemoveVerticesInto is RemoveVertices into workspace memory.
func (g *Graph) RemoveVerticesInto(ws *Workspace, vs []int) *Sub {
	keep := ws.Mask(g.N())
	for i := range keep {
		keep[i] = true
	}
	for _, v := range vs {
		keep[v] = false
	}
	return g.InduceInto(ws, keep)
}

// FilterEdgesInto builds, in workspace memory, the graph on the same
// vertex set with every edge {u,v} for which drop(u,v) returns true
// removed, and returns it wrapped with identity provenance plus the
// number of dropped edges. drop is called exactly once per undirected
// edge, in ForEachEdge order (ascending u, then ascending v > u) — the
// property fault models rely on for reproducible draws.
func (g *Graph) FilterEdgesInto(ws *Workspace, drop func(u, v int) bool) (*Sub, int) {
	n := g.N()
	// Mark dropped adjacency positions (both directions) with the epoch
	// stamp over the adj index space.
	ws.beginVisit(len(g.adj))
	dropped := 0
	for u := 0; u < n; u++ {
		nb := g.Neighbors(u)
		base := int(g.offsets[u])
		for i, w := range nb {
			if int(w) > u && drop(u, int(w)) {
				ws.mark(int32(base + i))
				ws.mark(g.reverseAdjIndex(int(w), u))
				dropped++
			}
		}
	}
	slot := ws.nextSlot(g)
	offsets := grow32(slot.offsets, n+1)
	slot.offsets = offsets
	adj := grow32(slot.adj, len(g.adj))
	slot.adj = adj
	offsets[0] = 0
	idx := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			if !ws.seen(i) {
				adj[idx] = g.adj[i]
				idx++
			}
		}
		offsets[u+1] = idx
	}
	slot.adj = adj[:idx]
	slot.g = Graph{offsets: offsets, adj: slot.adj}
	orig := grow32(slot.orig, n)
	for i := range orig {
		orig[i] = int32(i)
	}
	slot.orig = orig
	slot.sub = Sub{G: &slot.g, Orig: orig}
	return &slot.sub, dropped
}

// reverseAdjIndex locates the adj-array position of neighbor u inside
// v's (sorted) adjacency list, in O(log deg(v)).
func (g *Graph) reverseAdjIndex(v, u int) int32 {
	lo, hi := g.offsets[v], g.offsets[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.adj[mid] < int32(u) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ComponentsInto is the one component labeller: it labels the
// components of the subgraph keep induces (a nil keep keeps every
// vertex) on g's own CSR, without building that subgraph. labels[v] is
// v's component id, or -1 when keep drops v, and sizes[id] is that
// component's size. Ids ascend with each component's smallest vertex —
// the order it gives on InduceInto's result, whose vertex remap is
// monotone. Both slices are ws-owned and valid until the next component
// call on ws (this or FilteredComponentSizesInto).
func (g *Graph) ComponentsInto(ws *Workspace, keep []bool) (labels []int32, sizes []int) {
	n := g.N()
	if keep != nil && len(keep) != n {
		panic("graph: component mask length mismatch")
	}
	// Kept vertices start unseen and dropped ones at -1, so the walk
	// tests one label per neighbour instead of a label and a mask bit.
	const unseen = -2
	labels = grow32(ws.labels, n)
	ws.labels = labels
	if keep == nil {
		for v := range labels {
			labels[v] = unseen
		}
	} else {
		for v, k := range keep {
			l := int32(-1)
			if k {
				l = unseen
			}
			labels[v] = l
		}
	}
	sizes = ws.sizes[:0]
	stack := ws.queue[:0]
	for s := range labels {
		if labels[s] != unseen {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		stack = append(stack[:0], int32(s))
		count := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, w := range g.Neighbors(int(u)) {
				if labels[w] == unseen {
					labels[w] = id
					stack = append(stack, w)
				}
			}
		}
		sizes = append(sizes, count)
	}
	ws.queue = stack[:0]
	ws.sizes = sizes
	return labels, sizes
}

// FilteredComponentSizesInto returns the component sizes of the graph
// FilterEdgesInto(ws, drop) would build, plus the number of dropped
// edges, without building it: drop is called exactly once per
// undirected edge in ForEachEdge order (FilterEdgesInto's contract),
// and each kept edge is unioned by remUnion in a ws-owned parent array.
// Every parent pointer goes to a smaller vertex, so each root is its
// component's smallest vertex, and one ascending pass reads the sizes in
// ascending order of each component's smallest vertex — the order
// ComponentsInto gives. The slice is ws-owned and valid until the next
// component call on ws.
func (g *Graph) FilteredComponentSizesInto(ws *Workspace, drop func(u, v int) bool) ([]int, int) {
	n := g.N()
	parent := grow32(ws.parent, n)
	ws.parent = parent
	for v := range parent {
		parent[v] = int32(v)
	}
	dropped := 0
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) <= u {
				continue
			}
			if drop(u, int(w)) {
				dropped++
			} else {
				remUnion(parent, int32(u), w)
			}
		}
	}
	// parent[v] ≤ v, so by the time the pass reaches v its parent has
	// been overwritten with its component's id, stored as ^id so that it
	// cannot be mistaken for a vertex; a vertex that is its own parent
	// is a root and opens the next component.
	sizes := ws.sizes[:0]
	for v, p := range parent {
		if p == int32(v) {
			parent[v] = ^int32(len(sizes))
			sizes = append(sizes, 1)
		} else {
			id := parent[p]
			parent[v] = id
			sizes[^id]++
		}
	}
	ws.sizes = sizes
	return sizes, dropped
}

// remUnion merges the trees of x and y with Rem's union–find with
// splicing (Dijkstra, A Discipline of Programming, 1976; Patwary, Blair
// and Manne, SEA 2010, found it the fastest in practice), keeping
// parent[v] ≤ v for every v. The walk climbs from whichever side has
// the larger parent and points that node at the other side's smaller
// parent as it goes, so the two paths are spliced together and shortened
// in one pass; it stops when both sides share a parent (already joined)
// or a root is reached and hung below the other side.
func remUnion(parent []int32, x, y int32) {
	for parent[x] != parent[y] {
		if parent[x] < parent[y] {
			x, y = y, x
		}
		px := parent[x]
		parent[x] = parent[y]
		if px == x {
			return
		}
		x = px
	}
}

// GammaLargestInto is GammaLargest on workspace memory.
func (g *Graph) GammaLargestInto(ws *Workspace) float64 {
	if g.N() == 0 {
		return 0
	}
	_, sizes := g.ComponentsInto(ws, nil)
	return float64(slices.Max(sizes)) / float64(g.N())
}

// BFSDistancesInto is BFSDistances into the ws-owned distance buffer;
// the returned slice is valid until the next BFSDistancesInto call.
func (g *Graph) BFSDistancesInto(ws *Workspace, src int) []int32 {
	ws.dist = grow32(ws.dist, g.N())
	ws.queue = g.BFS(src, ws.dist, nil, ws.queue)
	return ws.dist
}

// LargestComponentSubInto restricts s to its largest connected component
// (ties broken by lowest component id), composing provenance back to the
// original graph, entirely in workspace memory.
func (s *Sub) LargestComponentSubInto(ws *Workspace) *Sub {
	labels, sizes := s.G.ComponentsInto(ws, nil)
	if len(sizes) == 0 {
		return s.G.InduceInto(ws, ws.Mask(0))
	}
	best := 0
	for i, sz := range sizes {
		if sz > sizes[best] {
			best = i
		}
	}
	keep := ws.Mask(s.G.N())
	for v, l := range labels {
		keep[v] = int(l) == best
	}
	inner := s.G.InduceInto(ws, keep)
	// Compose provenance in place: inner.Orig currently holds ids in
	// s.G's coordinates; rewrite them to the root graph's coordinates.
	for i, mid := range inner.Orig {
		inner.Orig[i] = s.Orig[mid]
	}
	return inner
}
