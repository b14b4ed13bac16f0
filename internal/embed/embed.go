// Package embed implements the fault-free-into-faulty embedding
// substrate of the paper's §1.2: a mapping of guest-graph nodes onto
// host-graph nodes plus a routing of every guest edge along a host path,
// evaluated by the three classic metrics — load ℓ (guests per host
// node), congestion c (paths per host edge), and dilation d (longest
// path). By Leighton–Maggs–Rao, the host can then emulate each guest
// step with slowdown O(ℓ + c + d), which is the quantity experiment E9
// tracks for pruned faulty meshes.
package embed

import (
	"fmt"

	"faultexp/internal/graph"
)

// Embedding maps a guest graph into a host graph.
type Embedding struct {
	Guest *graph.Graph
	Host  *graph.Graph
	// NodeMap[g] is the host node carrying guest node g.
	NodeMap []int32
	// Paths[i] is the host path routing the i-th guest edge (in
	// Guest.Edges() order); each path starts at NodeMap[u] and ends at
	// NodeMap[v].
	Paths [][]int32
}

// Metrics are the classic embedding quality measures.
type Metrics struct {
	Load       int // max guests mapped to one host node
	Congestion int // max paths crossing one host edge
	Dilation   int // max path length (edges)
	// Slowdown is the Leighton–Maggs–Rao emulation estimate ℓ + c + d.
	Slowdown int
}

func (m Metrics) String() string {
	return fmt.Sprintf("load=%d congestion=%d dilation=%d slowdown=%d",
		m.Load, m.Congestion, m.Dilation, m.Slowdown)
}

// Evaluate computes the embedding's metrics.
func (e *Embedding) Evaluate() Metrics {
	var m Metrics
	loads := make(map[int32]int)
	for _, h := range e.NodeMap {
		loads[h]++
		if loads[h] > m.Load {
			m.Load = loads[h]
		}
	}
	cong := make(map[[2]int32]int)
	for _, p := range e.Paths {
		if len(p)-1 > m.Dilation {
			m.Dilation = len(p) - 1
		}
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i], p[i+1]
			if a > b {
				a, b = b, a
			}
			key := [2]int32{a, b}
			cong[key]++
			if cong[key] > m.Congestion {
				m.Congestion = cong[key]
			}
		}
	}
	m.Slowdown = m.Load + m.Congestion + m.Dilation
	return m
}

// Validate checks structural soundness: every path consists of host
// edges and connects the mapped endpoints of its guest edge.
func (e *Embedding) Validate() error {
	edges := e.Guest.Edges()
	if len(edges) != len(e.Paths) {
		return fmt.Errorf("embed: %d paths for %d guest edges", len(e.Paths), len(edges))
	}
	if len(e.NodeMap) != e.Guest.N() {
		return fmt.Errorf("embed: node map covers %d of %d guest nodes", len(e.NodeMap), e.Guest.N())
	}
	for i, ge := range edges {
		p := e.Paths[i]
		if len(p) == 0 {
			return fmt.Errorf("embed: guest edge %d has empty path", i)
		}
		if p[0] != e.NodeMap[ge[0]] || p[len(p)-1] != e.NodeMap[ge[1]] {
			return fmt.Errorf("embed: path %d endpoints (%d,%d) do not match map (%d,%d)",
				i, p[0], p[len(p)-1], e.NodeMap[ge[0]], e.NodeMap[ge[1]])
		}
		for j := 0; j+1 < len(p); j++ {
			if !e.Host.HasEdge(int(p[j]), int(p[j+1])) {
				return fmt.Errorf("embed: path %d uses non-edge (%d,%d)", i, p[j], p[j+1])
			}
		}
	}
	return nil
}

// IntoHost embeds guest into host using the given node map, routing each
// guest edge along a BFS shortest path in host. Returns an error if any
// mapped pair is disconnected in host.
func IntoHost(guest, host *graph.Graph, nodeMap []int32) (*Embedding, error) {
	if len(nodeMap) != guest.N() {
		return nil, fmt.Errorf("embed: node map length %d ≠ guest size %d", len(nodeMap), guest.N())
	}
	e := &Embedding{Guest: guest, Host: host, NodeMap: nodeMap}
	// Group guest edges by source host node so one BFS serves many
	// routes.
	edges := guest.Edges()
	bySrc := map[int32][]int{}
	for i, ge := range edges {
		bySrc[nodeMap[ge[0]]] = append(bySrc[nodeMap[ge[0]]], i)
	}
	e.Paths = make([][]int32, len(edges))
	dist, parent := make([]int32, host.N()), make([]int32, host.N())
	var queue []int32
	for src, idxs := range bySrc {
		queue = host.BFS(int(src), dist, parent, queue)
		for _, i := range idxs {
			dst := nodeMap[edges[i][1]]
			if dist[dst] < 0 {
				return nil, fmt.Errorf("embed: host nodes %d and %d disconnected", src, dst)
			}
			// Reconstruct path dst → src, then reverse.
			var rev []int32
			for cur := dst; cur >= 0; cur = parent[cur] {
				rev = append(rev, cur)
				if cur == src {
					break
				}
			}
			path := make([]int32, len(rev))
			for j, v := range rev {
				path[len(rev)-1-j] = v
			}
			e.Paths[i] = path
		}
	}
	return e, nil
}

// NearestAliveMap builds the standard faulty-mesh remapping: for each
// guest node (a vertex of the original graph), find the nearest vertex
// of the host component (hostSub, a pruned subgraph of the original
// graph with provenance) in the *original* graph's metric, by
// multi-source BFS from all alive vertices. Guest nodes that are alive
// map to themselves.
func NearestAliveMap(orig *graph.Graph, hostSub *graph.Sub) []int32 {
	n := orig.N()
	owner := make([]int32, n) // nearest alive vertex (host-sub id)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, hostSub.G.N())
	for hid, ov := range hostSub.Orig {
		dist[ov] = 0
		owner[ov] = int32(hid)
		queue = append(queue, ov)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range orig.Neighbors(int(u)) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				owner[w] = owner[u]
				queue = append(queue, w)
			}
		}
	}
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		if dist[v] < 0 {
			out[v] = -1 // unreachable (host empty or disconnected orig)
		} else {
			out[v] = owner[v]
		}
	}
	return out
}

// EmulateFaultyMesh builds the full §1.2 pipeline: embed the ideal graph
// orig into the surviving component hostSub (both alive and faulty guest
// nodes are remapped to nearest-alive), route all edges, and return the
// embedding. Returns an error if the host is empty.
func EmulateFaultyMesh(orig *graph.Graph, hostSub *graph.Sub) (*Embedding, error) {
	if hostSub.G.N() == 0 {
		return nil, fmt.Errorf("embed: empty host")
	}
	nodeMap := NearestAliveMap(orig, hostSub)
	for v, h := range nodeMap {
		if h < 0 {
			return nil, fmt.Errorf("embed: guest node %d cannot reach the host component", v)
		}
	}
	return IntoHost(orig, hostSub.G, nodeMap)
}
