package graph

// This file implements induced subgraphs with node provenance. Fault
// injection and pruning both work by carving induced subgraphs out of a
// parent graph; the Sub type keeps the mapping back to original vertex
// IDs so that experiment reports can speak in terms of the fault-free
// network's coordinates.

// Sub is an induced subgraph together with its provenance: Orig maps each
// subgraph vertex to the vertex ID it had in the parent graph.
type Sub struct {
	G    *Graph
	Orig []int32 // Orig[newID] = oldID
}

// Induce returns the subgraph induced by keep (keep[v] == true means v
// survives), with provenance mapping. It is a thin wrapper over
// InduceInto on a throwaway Workspace, so the result is uniquely owned
// and safe to retain.
func (g *Graph) Induce(keep []bool) *Sub {
	return g.InduceInto(NewWorkspace(), keep)
}

// InduceVertices returns the subgraph induced by the given vertex set.
func (g *Graph) InduceVertices(vs []int) *Sub {
	ws := NewWorkspace()
	return g.InduceInto(ws, ws.SetMask(g.N(), vs))
}

// RemoveVertices returns the subgraph obtained by deleting the given
// vertices (the complement of InduceVertices).
func (g *Graph) RemoveVertices(vs []int) *Sub {
	return g.RemoveVerticesInto(NewWorkspace(), vs)
}

// RemoveEdges returns a new graph with the listed undirected edges
// deleted (vertex set unchanged). Unknown edges are ignored.
func (g *Graph) RemoveEdges(edges [][2]int32) *Graph {
	drop := make(map[[2]int32]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		drop[[2]int32{u, v}] = true
	}
	b := NewBuilder(g.N())
	g.ForEachEdge(func(u, v int) {
		if !drop[[2]int32{int32(u), int32(v)}] {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// LargestComponentSub returns the subgraph induced (within s) by the
// largest connected component of s.G, with provenance composed back to
// the original graph.
func (s *Sub) LargestComponentSub() *Sub {
	return s.LargestComponentSubInto(NewWorkspace())
}

// Identity returns a Sub wrapping g with the identity provenance, useful
// as the starting point of pruning pipelines.
func Identity(g *Graph) *Sub {
	orig := make([]int32, g.N())
	for i := range orig {
		orig[i] = int32(i)
	}
	return &Sub{G: g, Orig: orig}
}
