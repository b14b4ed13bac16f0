package faults

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// oracleFamilies gives every registered family a small size (and k,
// for the families that take one) for the Components oracle; path:1
// keeps the one-vertex graph in the corpus.
var oracleFamilies = map[string]struct {
	size string
	k    int
}{
	"mesh":       {"3x4", 0},
	"torus":      {"4x4", 0},
	"hypercube":  {"4", 0},
	"butterfly":  {"2", 0},
	"wbutterfly": {"3", 0},
	"ccc":        {"3", 0},
	"debruijn":   {"4", 0},
	"shuffle":    {"4", 0},
	"expander":   {"4", 0},
	"complete":   {"6", 0},
	"cycle":      {"7", 0},
	"path":       {"1", 0},
	"rr":         {"12x3", 0},
	"chain":      {"3", 2},
	"gnp":        {"20x3", 0},
	"smallworld": {"20x4", 3},
	"shortcut":   {"4x4", 3},
}

// naiveComponents is the reference Model.Components is checked
// against: it replays the model's fault set from seed, builds the
// survivor as adjacency sets, labels it with a plain FIFO BFS from each
// unreached vertex in ascending order, and returns the component sizes
// in that order (by smallest vertex) with the number of failed
// elements.
func naiveComponents(g *graph.Graph, model string, rate float64, seed uint64) ([]int, int) {
	rng := xrand.New(seed)
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	link := func(u, v int) { adj[u][v], adj[v][u] = true, true }
	failed := 0
	switch model {
	case ModelIIDNode:
		for v := 0; v < n; v++ {
			if rng.Bool(rate) {
				alive[v] = false
				failed++
			}
		}
	case ModelIIDEdge:
		g.ForEachEdge(func(u, v int) {
			if rng.Bool(rate) {
				failed++
			} else {
				link(u, v)
			}
		})
	case ModelAdversarial:
		pat := BottleneckAdversary{}.Select(g, int(math.Round(rate*float64(n))), rng)
		for _, v := range pat.Nodes {
			alive[v] = false
		}
		failed = len(pat.Nodes)
	default:
		panic("unknown model " + model)
	}
	if model != ModelIIDEdge {
		g.ForEachEdge(func(u, v int) {
			if alive[u] && alive[v] {
				link(u, v)
			}
		})
	}
	var sizes []int
	seen := make([]bool, n)
	for s := 0; s < n; s++ {
		if !alive[s] || seen[s] {
			continue
		}
		seen[s] = true
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			for w := range adj[queue[head]] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	return sizes, failed
}

// randomBuilderGraph draws a graph on 1–48 vertices with up to 2n
// random edge insertions (self-loops and duplicates included, which the
// Builder drops).
func randomBuilderGraph(rng *xrand.RNG) *graph.Graph {
	n := 1 + rng.Intn(48)
	b := graph.NewBuilder(n)
	for i, m := 0, rng.Intn(2*n+1); i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// TestModelComponentsMatchesNaiveOracle is the differential oracle for
// Model.Components: on random Builder graphs and every registered
// family, at rates 0, .05, .5 and 1, each built-in model's component
// sizes (order included) and fault count equal the naive reference
// replayed from the same seed. One workspace serves every call, so
// state leaking between calls shows up too.
func TestModelComponentsMatchesNaiveOracle(t *testing.T) {
	type corpusGraph struct {
		name string
		g    *graph.Graph
	}
	var corpus []corpusGraph
	rng := xrand.New(20040627)
	for i := 0; i < 24; i++ {
		corpus = append(corpus, corpusGraph{fmt.Sprintf("builder#%d", i), randomBuilderGraph(rng)})
	}
	for _, fam := range gen.FamilyNames() {
		f, ok := oracleFamilies[fam]
		if !ok {
			t.Fatalf("family %q has no oracle size", fam)
		}
		name := fmt.Sprintf("%s:%s:%d", fam, f.size, f.k)
		g, _, err := gen.FromFamily(fam, f.size, f.k, xrand.New(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() < 1 {
			t.Fatalf("%s: empty graph", name)
		}
		corpus = append(corpus, corpusGraph{name, g})
	}
	ws := graph.NewWorkspace()
	for _, m := range Models() {
		for _, cg := range corpus {
			for _, rate := range []float64{0, 0.05, 0.5, 1} {
				for seed := uint64(1); seed <= 3; seed++ {
					want, wantFailed := naiveComponents(cg.g, m.Name(), rate, seed)
					got, failed := m.Components(cg.g, rate, ws, xrand.New(seed))
					if failed != wantFailed || !slices.Equal(got, want) {
						t.Fatalf("%s on %s, rate %g, seed %d: sizes %v with %d failed, want %v with %d",
							m.Name(), cg.name, rate, seed, got, failed, want, wantFailed)
					}
				}
			}
		}
	}
}
