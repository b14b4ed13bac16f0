package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveComponents is the reference the component labeller is checked
// against, sharing no code with it: adjacency sets built from the raw
// edge list (self-loops ignored, duplicates collapsed), a FIFO
// breadth-first search from each unlabelled kept vertex in ascending
// order, and label -1 for every vertex keep drops (a nil keep keeps
// all).
func naiveComponents(n int, edges [][2]int, keep []bool) ([]int32, []int) {
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	for _, e := range edges {
		if e[0] != e[1] {
			adj[e[0]][e[1]] = true
			adj[e[1]][e[0]] = true
		}
	}
	kept := func(v int) bool { return keep == nil || keep[v] }
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = -1
	}
	var sizes []int
	for s := 0; s < n; s++ {
		if !kept(s) || labels[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			for w := range adj[queue[head]] {
				if kept(w) && labels[w] < 0 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	return labels, sizes
}

// TestComponentsIntoMatchesBFSOracle compares ComponentsInto with
// naiveComponents label for label and size for size, on small families
// and on random Builder graphs (self-loops and duplicate edges
// included), under a nil, an all-false, an all-true and three random
// keep masks, on one reused workspace.
func TestComponentsIntoMatchesBFSOracle(t *testing.T) {
	type instance struct {
		name  string
		n     int
		edges [][2]int
	}
	ring := func(n int) [][2]int {
		var es [][2]int
		for v := 0; v < n; v++ {
			es = append(es, [2]int{v, (v + 1) % n})
		}
		return es
	}
	var cases []instance
	cases = append(cases,
		instance{"empty", 0, nil},
		instance{"single", 1, nil},
		instance{"edgeless", 5, nil},
		instance{"path7", 7, ring(7)[:6]},
		instance{"cycle8", 8, ring(8)},
		instance{"star6", 6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}},
		instance{"two-triangles", 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}},
	)
	var complete [][2]int
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			complete = append(complete, [2]int{u, v})
		}
	}
	cases = append(cases, instance{"complete5", 5, complete})
	var torus [][2]int
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			torus = append(torus, [2]int{r*4 + c, ((r+1)%4)*4 + c}, [2]int{r*4 + c, r*4 + (c+1)%4})
		}
	}
	cases = append(cases, instance{"torus4x4", 16, torus})
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		n := 1 + r.Intn(40)
		edges := make([][2]int, r.Intn(2*n+1))
		for j := range edges {
			edges[j] = [2]int{r.Intn(n), r.Intn(n)}
		}
		cases = append(cases, instance{"random", n, edges})
	}

	ws := NewWorkspace()
	for ci, c := range cases {
		g := FromEdges(c.n, c.edges)
		// Keep probabilities: -1 stands for the nil mask.
		for _, p := range []float64{-1, 0, 1, 0.3, 0.6, 0.9} {
			var keep []bool
			if p >= 0 {
				keep = make([]bool, c.n)
				for v := range keep {
					keep[v] = r.Float64() < p
				}
			}
			wantL, wantS := naiveComponents(c.n, c.edges, keep)
			gotL, gotS := g.ComponentsInto(ws, keep)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotS, wantS) {
				t.Fatalf("case %d (%s, n=%d), keep %v: labels %v sizes %v, want %v %v",
					ci, c.name, c.n, keep, gotL, gotS, wantL, wantS)
			}
		}
	}
}

// TestFilteredComponentSizesIntoMatchesBFSOracle checks the edge pass
// against naiveComponents over the edges it keeps: the sizes, their
// order included, and the dropped count, and that drop saw exactly
// ForEachEdge's (u, v) sequence. The graphs are n = 0, 1 and 2, a path
// whose edges are added in reverse, a zigzag path (0, n−1, 1, n−2, …)
// whose union order builds a parent chain of length n/2, a star,
// complete:9, torus:5x7, and random multigraphs with parallel edges and
// isolated vertices; each edge drops on a seeded bit at shares 0, 0.1,
// 0.5, 0.9 and 1, on one reused workspace.
func TestFilteredComponentSizesIntoMatchesBFSOracle(t *testing.T) {
	type instance struct {
		name  string
		n     int
		edges [][2]int
	}
	cases := []instance{
		{"empty", 0, nil},
		{"single", 1, nil},
		{"pair", 2, [][2]int{{0, 1}}},
		{"pair-edgeless", 2, nil},
	}
	var reversed, zigzag, star [][2]int
	for v := 38; v >= 0; v-- {
		reversed = append(reversed, [2]int{v, v + 1})
	}
	zigzagAt := func(i int) int {
		if i%2 == 0 {
			return i / 2
		}
		return 39 - i/2
	}
	for i := 0; i+1 < 40; i++ {
		zigzag = append(zigzag, [2]int{zigzagAt(i), zigzagAt(i + 1)})
	}
	for v := 1; v < 12; v++ {
		star = append(star, [2]int{0, v})
	}
	var complete, torus [][2]int
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			complete = append(complete, [2]int{u, v})
		}
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 7; c++ {
			torus = append(torus, [2]int{r*7 + c, ((r+1)%5)*7 + c}, [2]int{r*7 + c, r*7 + (c+1)%7})
		}
	}
	cases = append(cases,
		instance{"reversed-path40", 40, reversed},
		instance{"zigzag-path40", 40, zigzag},
		instance{"star12", 12, star},
		instance{"complete9", 9, complete},
		instance{"torus5x7", 35, torus},
	)
	r := rand.New(rand.NewSource(26))
	for i := 0; i < 30; i++ {
		// Edges touch only the first span vertices, so the rest are
		// isolated, and some are added two or three times.
		n := 1 + r.Intn(40)
		span := 1 + r.Intn(n)
		var edges [][2]int
		for j := r.Intn(2*n + 1); j > 0; j-- {
			e := [2]int{r.Intn(span), r.Intn(span)}
			for k := 1 + r.Intn(3); k > 0; k-- {
				edges = append(edges, e)
			}
		}
		cases = append(cases, instance{"random-multigraph", n, edges})
	}

	ws := NewWorkspace()
	for ci, c := range cases {
		g := FromEdges(c.n, c.edges)
		var order [][2]int
		g.ForEachEdge(func(u, v int) { order = append(order, [2]int{u, v}) })
		for _, share := range []float64{0, 0.1, 0.5, 0.9, 1} {
			bits := make([]bool, len(order))
			wantDropped := 0
			var kept [][2]int
			for i, e := range order {
				bits[i] = r.Float64() < share
				if bits[i] {
					wantDropped++
				} else {
					kept = append(kept, e)
				}
			}
			_, wantSizes := naiveComponents(c.n, kept, nil)
			var seen [][2]int
			gotSizes, dropped := g.FilteredComponentSizesInto(ws, func(u, v int) bool {
				seen = append(seen, [2]int{u, v})
				return len(seen) <= len(bits) && bits[len(seen)-1]
			})
			if !slices.Equal(seen, order) {
				t.Fatalf("case %d (%s), share %v: drop saw %v, want ForEachEdge's %v", ci, c.name, share, seen, order)
			}
			if dropped != wantDropped || !slices.Equal(gotSizes, wantSizes) {
				t.Fatalf("case %d (%s, n=%d), share %v: sizes %v with %d dropped, want %v with %d",
					ci, c.name, c.n, share, gotSizes, dropped, wantSizes, wantDropped)
			}
		}
	}
}
