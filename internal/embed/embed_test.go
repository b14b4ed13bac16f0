package embed

import (
	"testing"

	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// identity embeds g into itself: map = id, so IntoHost routes every
// guest edge along the host edge itself.
func identity(t *testing.T, g *graph.Graph) *Embedding {
	t.Helper()
	ids := make([]int32, g.N())
	for v := range ids {
		ids[v] = int32(v)
	}
	e, err := IntoHost(g, g, ids)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIdentityEmbedding(t *testing.T) {
	g := gen.Torus(4, 4)
	e := identity(t, g)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	m := e.Evaluate()
	if m.Load != 1 || m.Congestion != 1 || m.Dilation != 1 {
		t.Fatalf("identity metrics = %v", m)
	}
	if m.Slowdown != 3 {
		t.Fatalf("slowdown = %d", m.Slowdown)
	}
}

func TestIntoHostPathIntoCycle(t *testing.T) {
	guest := gen.Path(4)
	host := gen.Cycle(8)
	nodeMap := []int32{0, 2, 4, 6} // stretch every guest edge to length 2
	e, err := IntoHost(guest, host, nodeMap)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	m := e.Evaluate()
	if m.Dilation != 2 {
		t.Fatalf("dilation = %d, want 2", m.Dilation)
	}
	if m.Load != 1 {
		t.Fatalf("load = %d, want 1", m.Load)
	}
}

func TestIntoHostDisconnected(t *testing.T) {
	guest := gen.Path(2)
	host := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := IntoHost(guest, host, []int32{0, 2}); err == nil {
		t.Fatal("embedding across host components must fail")
	}
}

func TestIntoHostBadMapLength(t *testing.T) {
	if _, err := IntoHost(gen.Path(3), gen.Cycle(5), []int32{0}); err == nil {
		t.Fatal("short node map must fail")
	}
}

func TestValidateCatchesBrokenPath(t *testing.T) {
	g := gen.Cycle(6)
	e := identity(t, g)
	e.Paths[0] = []int32{0, 3} // not an edge
	if err := e.Validate(); err == nil {
		t.Fatal("Validate must reject non-edge hops")
	}
}

func TestNearestAliveMapAllAlive(t *testing.T) {
	g := gen.Torus(4, 4)
	sub := graph.Identity(g)
	m := NearestAliveMap(g, sub)
	for v, h := range m {
		if int(sub.Orig[h]) != v {
			t.Fatalf("all-alive map should be identity at %d", v)
		}
	}
}

func TestNearestAliveMapWithFaults(t *testing.T) {
	g := gen.Mesh(5, 5)
	pat := faults.Pattern{Nodes: []int{12}} // center
	sub := pat.Apply(g).LargestComponentSub()
	m := NearestAliveMap(g, sub)
	// The faulty center must map to one of its mesh neighbours.
	h := m[12]
	if h < 0 {
		t.Fatal("faulty node unmapped")
	}
	orig := int(sub.Orig[h])
	if !g.HasEdge(12, orig) {
		t.Fatalf("center remapped to non-neighbour %d", orig)
	}
}

func TestEmulateFaultyMeshEndToEnd(t *testing.T) {
	g := gen.Torus(8, 8)
	rng := xrand.New(9)
	pat := faults.ExactRandomNodes(g, 4, rng)
	host := pat.Apply(g).LargestComponentSub()
	if host.G.N() < 50 {
		t.Skip("faults happened to shatter the torus")
	}
	e, err := EmulateFaultyMesh(g, host)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	m := e.Evaluate()
	if m.Dilation < 1 {
		t.Fatal("dilation must be ≥ 1")
	}
	// With 4 faults on 64 nodes, detours stay short.
	if m.Dilation > 8 {
		t.Fatalf("dilation %d unexpectedly large", m.Dilation)
	}
	if m.Load < 1 || m.Load > 6 {
		t.Fatalf("load %d out of range", m.Load)
	}
	if m.Slowdown != m.Load+m.Congestion+m.Dilation {
		t.Fatal("slowdown must be ℓ+c+d")
	}
}

func TestEmulateFaultyMeshEmptyHost(t *testing.T) {
	g := gen.Path(3)
	empty := g.InduceVertices(nil)
	if _, err := EmulateFaultyMesh(g, empty); err == nil {
		t.Fatal("empty host must fail")
	}
}

func BenchmarkEmulateFaultyTorus(b *testing.B) {
	g := gen.Torus(16, 16)
	rng := xrand.New(1)
	pat := faults.ExactRandomNodes(g, 10, rng)
	host := pat.Apply(g).LargestComponentSub()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := EmulateFaultyMesh(g, host)
		if err != nil {
			b.Fatal(err)
		}
		_ = e.Evaluate()
	}
}
