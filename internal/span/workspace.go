package span

// Workspace-threaded span estimation: SampledWs and MeshBoundaryTreeWs
// run the same computations as Sampled and MeshBoundaryTree with the
// compact-set sampler, boundary extraction and Steiner solves drawing
// from caller-owned scratch, so a warm sweep trial stops paying the
// per-sample Steiner-table and boundary allocations.

import (
	"fmt"

	"faultexp/internal/compact"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/steiner"
	"faultexp/internal/xrand"
)

// Workspace is reusable per-worker scratch for SampledWs and
// MeshBoundaryTreeWs. The zero value is ready to use; buffers grow on
// demand and are retained across calls. The ArgSet of a SampledWs
// estimate aliases workspace memory and is valid only until the next
// call on the same workspace. Not safe for concurrent use.
type Workspace struct {
	st   steiner.Scratch
	comp compact.Scratch

	inU    []bool
	seen   []bool
	bnd    []int
	argset []int

	// Mesh certificate scratch.
	coordArena []int
	coords     [][]int
	midBuf     []int
	nodeMark   []bool
	dist       []int32
	parent     []int32
	queue      []int32
}

// NewWorkspace returns an empty Workspace. The zero value is also valid;
// the constructor exists for call-site clarity.
func NewWorkspace() *Workspace { return &Workspace{} }

// boundary computes Γ(set) into ws.bnd (same order as
// expansion.Boundary: ascending set scan, neighbor order).
func (ws *Workspace) boundary(g *graph.Graph, set []int) []int {
	n := g.N()
	if cap(ws.inU) < n {
		ws.inU = make([]bool, n)
		ws.seen = make([]bool, n)
	}
	inU, seen := ws.inU[:n], ws.seen[:n]
	for i := 0; i < n; i++ {
		inU[i] = false
		seen[i] = false
	}
	for _, v := range set {
		inU[v] = true
	}
	out := ws.bnd[:0]
	for v := 0; v < n; v++ {
		if !inU[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !inU[w] && !seen[w] {
				seen[w] = true
				out = append(out, int(w))
			}
		}
	}
	ws.bnd = out
	return out
}

// ratioForWs computes |P(U)|/|Γ(U)| for one compact set on
// caller-owned scratch, using the exact Steiner DP when the boundary is
// small and the 2-approximation otherwise. Returns the ratio, tree node
// count, boundary size, and whether the tree was exact.
func ratioForWs(g *graph.Graph, set []int, ws *Workspace) (ratio float64, tree, boundary int, exact bool) {
	b := ws.boundary(g, set)
	if len(b) == 0 {
		return 0, 0, 0, true
	}
	if len(b) == 1 {
		return 1, 1, 1, true
	}
	if len(b) <= steiner.MaxExactTerminals {
		edges := steiner.ExactTreeEdgesScratch(g, b, &ws.st)
		nodes := edges + 1
		return float64(nodes) / float64(len(b)), nodes, len(b), true
	}
	nodes := len(steiner.ApproxTreeScratch(g, b, &ws.st))
	return float64(nodes) / float64(len(b)), nodes, len(b), false
}

// SampledWs is Sampled on caller-owned scratch: the same draw sequence
// and estimate, with ArgSet aliasing ws.
func SampledWs(g *graph.Graph, samples int, rng *xrand.RNG, ws *Workspace) Estimate {
	est := Estimate{}
	n := g.N()
	if n < 3 {
		return est
	}
	for i := 0; i < samples; i++ {
		// Spread target sizes geometrically between 1 and n/2.
		target := 1 + rng.Intn(1+n/2)
		set := compact.RandomScratch(g, target, rng, &ws.comp)
		if len(set) == 0 || len(set) >= n {
			continue
		}
		r, tree, b, _ := ratioForWs(g, set, ws)
		est.Sets++
		if r > est.Sigma {
			est.Sigma = r
			ws.argset = append(ws.argset[:0], set...)
			est.ArgSet = ws.argset
			est.TreeNodes = tree
			est.BoundaryNodes = b
		}
	}
	return est
}

// MeshBoundaryTreeWs is MeshBoundaryTree on caller-owned scratch: the
// boundary, coordinate rows, tree marks and BFS state are reused (the
// virtual-edge graph itself is still built per call — it is a different
// graph each time).
func MeshBoundaryTreeWs(g *graph.Graph, dims []int, set []int, ws *Workspace) (MeshCert, error) {
	b := ws.boundary(g, set)
	cert := MeshCert{BoundarySize: len(b)}
	if len(b) == 0 {
		return cert, fmt.Errorf("span: empty boundary")
	}
	if len(b) == 1 {
		cert.TreeNodes = 1
		cert.Ratio = 1
		cert.EvConnected = true
		cert.WithinTwoCert = true
		return cert, nil
	}
	// Boundary coordinates in a flat arena.
	d := len(dims)
	if cap(ws.coordArena) < len(b)*d {
		ws.coordArena = make([]int, len(b)*d)
	}
	arena := ws.coordArena[:len(b)*d]
	ws.coordArena = arena
	if cap(ws.coords) < len(b) {
		ws.coords = make([][]int, len(b))
	}
	coords := ws.coords[:len(b)]
	ws.coords = coords
	for i, v := range b {
		coords[i] = gen.MeshCoordsInto(v, dims, arena[i*d:(i+1)*d:(i+1)*d])
	}
	// Virtual edges: Chebyshev distance ≤ 1 with ≤ 2 coordinates
	// differing (Lemma 3.7).
	vb := graph.NewBuilder(len(b))
	for i := 0; i < len(b); i++ {
		for j := i + 1; j < len(b); j++ {
			if virtualAdjacent(coords[i], coords[j]) {
				vb.AddEdge(i, j)
			}
		}
	}
	vg := vb.Build()
	cert.EvConnected = vg.IsConnected()
	if !cert.EvConnected {
		return cert, fmt.Errorf("span: virtual boundary graph disconnected (|B|=%d)", len(b))
	}
	// BFS spanning tree of (B, Ev): |B|−1 virtual edges.
	if cap(ws.parent) < len(b) {
		ws.dist = make([]int32, len(b))
		ws.parent = make([]int32, len(b))
	}
	parent := ws.parent[:len(b)]
	ws.queue = vg.BFS(0, ws.dist[:len(b)], parent, ws.queue)
	cert.VirtualEdges = len(b) - 1
	// Simulate each tree edge with ≤ 2 mesh edges; count distinct nodes
	// with a mark array over the mesh.
	if cap(ws.nodeMark) < g.N() {
		ws.nodeMark = make([]bool, g.N())
	}
	mark := ws.nodeMark[:g.N()]
	for i := range mark {
		mark[i] = false
	}
	treeNodes := 0
	for _, v := range b {
		if !mark[v] {
			mark[v] = true
			treeNodes++
		}
	}
	if cap(ws.midBuf) < d {
		ws.midBuf = make([]int, d)
	}
	mid := ws.midBuf[:d]
	for child, par := range parent {
		if par < 0 {
			continue
		}
		cu, cv := coords[child], coords[par]
		if l1(cu, cv) == 1 {
			continue // direct mesh edge, no extra node
		}
		// Diagonal: route through the midpoint sharing u's value in the
		// first differing coordinate and v's in the second.
		copy(mid, cv)
		for i := range cu {
			if cu[i] != cv[i] {
				mid[i] = cu[i]
				break
			}
		}
		if m := gen.MeshIndex(mid, dims); !mark[m] {
			mark[m] = true
			treeNodes++
		}
	}
	cert.TreeNodes = treeNodes
	cert.Ratio = float64(cert.TreeNodes) / float64(cert.BoundarySize)
	cert.WithinTwoCert = cert.TreeNodes <= 2*cert.BoundarySize-1
	return cert, nil
}
