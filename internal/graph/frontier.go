package graph

// Bitset-packed frontier BFS — the fast path of the sampled-precision
// diameter/dilation kernels. A classic queue BFS keeps a 4-byte distance
// per vertex and visits frontiers through the queue; an eccentricity
// query needs none of that state, only "which level am I on and is the
// next frontier empty". Packing the visited set and both frontiers into
// bitsets cuts the per-vertex footprint to 3 bits and makes the level
// advance a word-parallel sweep, and — following the direction-
// optimizing BFS of Beamer et al. — wide frontiers switch to a bottom-up
// step that scans the unvisited complement instead of expanding every
// frontier edge, which is where small-diameter survivors (expanders,
// small worlds) spend most of their time.
//
// The traversal is direction-agnostic in its RESULT: top-down and
// bottom-up steps mark exactly the same next frontier, so the returned
// eccentricity and farthest vertex never depend on the heuristic switch.

import "faultexp/internal/bitset"

// frontierScratch is the Workspace's reusable bitset-BFS state.
type frontierScratch struct {
	cur, next, vis *bitset.Set
}

// frontier returns ws's bitset-BFS scratch resized (and cleared) for a
// universe of n vertices.
func (ws *Workspace) frontier(n int) *frontierScratch {
	fs := &ws.front
	if fs.cur == nil {
		fs.cur, fs.next, fs.vis = bitset.New(n), bitset.New(n), bitset.New(n)
		return fs
	}
	fs.cur.Resize(n)
	fs.next.Resize(n)
	fs.vis.Resize(n)
	return fs
}

// EccentricityFrontierInto computes the eccentricity of src within its
// component using bitset frontiers, and returns it together with the
// smallest-indexed vertex at that distance (the deterministic "farthest
// vertex", which iterated-sweep diameter sampling reseeds from).
// Scratch lives in ws; the graph is only read, so workspace-built
// graphs (CSR slots) stay valid across the call.
func (g *Graph) EccentricityFrontierInto(ws *Workspace, src int) (ecc, far int) {
	n := g.N()
	if n == 0 {
		return 0, src
	}
	fs := ws.frontier(n)
	cur, next, vis := fs.cur, fs.next, fs.vis
	cur.Add(src)
	vis.Add(src)
	ecc, far = 0, src
	frontier, visited := 1, 1
	for {
		next.ClearAll()
		produced := 0
		// Direction heuristic: a top-down step costs the frontier's edge
		// volume, a bottom-up step costs a scan of the unvisited
		// complement; with only counts on hand, switch bottom-up once the
		// frontier outnumbers a quarter of what is left. Either step
		// marks the identical next frontier, so the choice never changes
		// the result.
		if frontier > (n-visited)/4 {
			for v := vis.NextClear(0); v >= 0; v = vis.NextClear(v + 1) {
				for _, w := range g.Neighbors(v) {
					if cur.Contains(int(w)) {
						next.Add(v)
						produced++
						break
					}
				}
			}
			vis.Or(next)
		} else {
			cur.ForEach(func(u int) bool {
				for _, w := range g.Neighbors(u) {
					if !vis.Contains(int(w)) {
						vis.Add(int(w))
						next.Add(int(w))
						produced++
					}
				}
				return true
			})
		}
		if produced == 0 {
			return ecc, far
		}
		ecc++
		far = next.Min()
		cur, next = next, cur
		frontier, visited = produced, visited+produced
	}
}
