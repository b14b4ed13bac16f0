package graph

// This file contains the traversal machinery: BFS, connected components,
// distances, and eccentricity estimates. All of it operates on the
// immutable CSR representation and writes only caller-owned or freshly
// allocated scratch, so concurrent traversals of the same graph are
// safe.

// BFS is the one FIFO breadth-first search behind every hop-distance
// and BFS-tree user: it fills dist with hop distances from src (-1 where
// unreachable) and, when parent is non-nil, parent with each reached
// vertex's BFS parent (-1 for src and unreachable vertices). dist and a
// non-nil parent have length N; queue is scratch, returned emptied so
// the caller keeps its grown capacity for the next call.
func (g *Graph) BFS(src int, dist, parent, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	for i := range parent {
		parent[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, w := range g.Neighbors(int(u)) {
			if dist[w] < 0 {
				dist[w] = du
				if parent != nil {
					parent[w] = u
				}
				queue = append(queue, w)
			}
		}
	}
	return queue[:0]
}

// BFSDistances returns hop distances from src; unreachable vertices get -1.
// Thin wrapper over BFSDistancesInto on a throwaway Workspace.
func (g *Graph) BFSDistances(src int) []int32 {
	return g.BFSDistancesInto(NewWorkspace(), src)
}

// Components labels every vertex with a component ID in [0, k) and
// returns the labels together with the size of each component. Thin
// wrapper over ComponentsInto on a throwaway Workspace.
func (g *Graph) Components() (labels []int32, sizes []int) {
	return g.ComponentsInto(NewWorkspace(), nil)
}

// IsConnected reports whether the graph is connected (the empty graph and
// singleton graph count as connected).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	_, sizes := g.Components()
	return len(sizes) == 1
}

// GammaLargest returns the fraction of all n vertices contained in the
// largest connected component — γ(G) in the paper's notation.
func (g *Graph) GammaLargest() float64 {
	return g.GammaLargestInto(NewWorkspace())
}

// ComponentSizes returns the multiset of component sizes, descending.
func (g *Graph) ComponentSizes() []int {
	_, sizes := g.Components()
	// insertion sort desc (few components in practice)
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}

// Eccentricity returns the maximum BFS distance from src within its
// component.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFSDistances(src) {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// ApproxDiameter lower-bounds the diameter by the standard double-sweep
// heuristic: BFS from src, then BFS from the farthest vertex found. For
// trees the result is exact; for general graphs it is a lower bound that
// is very tight in practice.
func (g *Graph) ApproxDiameter(src int) int {
	if g.N() == 0 {
		return 0
	}
	dist := g.BFSDistances(src)
	far, fd := src, int32(0)
	for v, d := range dist {
		if d > fd {
			far, fd = v, d
		}
	}
	ecc := 0
	for _, d := range g.BFSDistances(far) {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Distance returns the hop distance between u and v, or -1 if
// disconnected.
func (g *Graph) Distance(u, v int) int {
	if u == v {
		return 0
	}
	d := g.BFSDistances(u)
	return int(d[v])
}
