package span

// The constructive side of Theorem 3.6: in a d-dimensional mesh, the
// boundary B = Γ(U) of any compact set U can be spanned by a tree with at
// most 2(|B|−1) edges. The construction places *virtual edges* between
// boundary nodes that differ by at most 1 in at most two coordinates
// (Lemma 3.7 proves the virtual-edge graph (B, Ev) is connected via a Z₂
// homology argument); each virtual edge is then simulated by at most two
// real mesh edges through a shared mesh neighbour.

import (
	"faultexp/internal/graph"
)

// MeshCert is the outcome of the Theorem 3.6 construction on one compact
// set of a mesh.
type MeshCert struct {
	BoundarySize  int     // |B| = |Γ(U)|
	VirtualEdges  int     // edges of the spanning tree of (B, Ev): |B|−1
	TreeNodes     int     // nodes of the simulated tree in the mesh
	Ratio         float64 // TreeNodes / BoundarySize — certified ≤ 2
	EvConnected   bool    // Lemma 3.7: (B, Ev) connected
	WithinTwoCert bool    // TreeNodes ≤ 2·BoundarySize − 1
}

// MeshBoundaryTree runs the Theorem 3.6 construction for a compact set U
// of the mesh with the given dims. g must be gen.Mesh(dims...). The
// returned certificate reports whether the virtual-edge graph was
// connected and whether the simulated tree met the 2(|B|−1) bound. It is
// a thin wrapper over MeshBoundaryTreeWs on a throwaway workspace.
func MeshBoundaryTree(g *graph.Graph, dims []int, set []int) (MeshCert, error) {
	return MeshBoundaryTreeWs(g, dims, set, NewWorkspace())
}

func virtualAdjacent(a, b []int) bool {
	diffs := 0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > 1 {
			return false
		}
		if d == 1 {
			diffs++
			if diffs > 2 {
				return false
			}
		}
	}
	return diffs >= 1
}

func l1(a, b []int) int {
	s := 0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
