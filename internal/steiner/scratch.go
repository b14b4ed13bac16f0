package steiner

// Scratch-based Steiner kernels: every intermediate — the per-terminal
// BFS rows, the 2^t×n Dreyfus–Wagner table, the relaxation buckets, the
// metric-MST state and the leaf-peeling buffers — lives in caller-owned
// arenas. The span sampler runs one Steiner solve per sampled compact
// set, and the dp table plus BFS rows dominated its allocation profile.

import (
	"math"

	"faultexp/internal/graph"
)

type medge struct{ a, b int }

// Scratch holds the reusable state of the Steiner solvers. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls. The node set returned by ApproxTreeScratch aliases scratch
// memory and is valid only until the next call on the same scratch. Not
// safe for concurrent use.
type Scratch struct {
	distArena   []int32
	dist        [][]int32
	parentArena []int32
	parent      [][]int32
	queue       []int32

	dpArena []int32   // 2^t × n Dreyfus–Wagner table, flat
	dp      [][]int32 // row views into dpArena
	buckets [][]int32 // Dial bucket queue (inner caps reused)

	inTree []bool // Prim state over terminals
	key    []int32
	from   []int
	medges []medge

	nodeMark []bool // tree-node marks in g coordinates
	nodes    []int

	termMark []bool // terminal marks in g coordinates
	isTerm   []bool // terminal marks in subgraph coordinates
	par      []int32
	deg      []int
	alive    []bool
	peel     []int
	out      []int

	gws *graph.Workspace // private: induced subgraph for leaf peeling
}

// growRows slices arena into t rows of length n, reallocating the arena
// only when capacity is exceeded. Row contents are unspecified.
func growRows(arena *[]int32, rows *[][]int32, t, n int) [][]int32 {
	if cap(*arena) < t*n {
		*arena = make([]int32, t*n)
	}
	a := (*arena)[:t*n]
	*arena = a
	if cap(*rows) < t {
		*rows = make([][]int32, t)
	}
	r := (*rows)[:t]
	*rows = r
	for i := 0; i < t; i++ {
		r[i] = a[i*n : (i+1)*n : (i+1)*n]
	}
	return r
}

// ExactTreeEdgesScratch returns the number of edges of a minimum
// Steiner tree connecting the given terminals (Dreyfus–Wagner), with the
// dp table and BFS rows drawn from scr. A tree with e edges has e+1
// nodes, which is the |P(U)| convention used by package span. Panics if
// terminals are empty, duplicated, disconnected from each other, or more
// numerous than MaxExactTerminals.
func ExactTreeEdgesScratch(g *graph.Graph, terminals []int, scr *Scratch) int {
	t := len(terminals)
	if t == 0 {
		panic("steiner: no terminals")
	}
	if t == 1 {
		return 0
	}
	if t > MaxExactTerminals {
		panic("steiner: too many terminals for exact DP")
	}
	n := g.N()
	dist := growRows(&scr.distArena, &scr.dist, t, n)
	for i, term := range terminals {
		scr.queue = g.BFS(term, dist[i], nil, scr.queue)
	}
	const inf = math.MaxInt32 / 4
	full := 1 << uint(t)
	dp := growRows(&scr.dpArena, &scr.dp, full, n)
	dp[0] = nil
	for s := 1; s < full; s++ {
		if s&(s-1) == 0 {
			// singleton {i}: dp = dist(i, v)
			i := trailingZeros(s)
			for v := 0; v < n; v++ {
				d := dist[i][v]
				if d < 0 {
					d = inf
				}
				dp[s][v] = d
			}
			continue
		}
		row := dp[s]
		for v := 0; v < n; v++ {
			row[v] = inf
		}
		// Merge step: dp[S][v] = min over proper sub-splits at v.
		for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
			if sub < s-sub {
				continue // visit each unordered split once
			}
			rest := s ^ sub
			a, b := dp[sub], dp[rest]
			for v := 0; v < n; v++ {
				if c := a[v] + b[v]; c < row[v] {
					row[v] = c
				}
			}
		}
		// Grow step: relax dp[S][·] over the graph metric.
		relaxUnitScratch(g, row, scr)
	}
	best := int32(inf)
	last := full - 1
	for _, term := range terminals {
		if dp[last][term] < best {
			best = dp[last][term]
		}
	}
	if best >= inf {
		panic("steiner: terminals not mutually connected")
	}
	return int(best)
}

// relaxUnitScratch lowers every d[v] to min over u of d[u] + dist(u, v)
// on the unit-weight graph g, with a bucket queue whose inner slices are
// reused across calls.
func relaxUnitScratch(g *graph.Graph, d []int32, scr *Scratch) {
	n := g.N()
	maxd := int32(0)
	for _, x := range d {
		if x > maxd && x < math.MaxInt32/8 {
			maxd = x
		}
	}
	need := int(maxd) + n + 2
	for len(scr.buckets) < need {
		scr.buckets = append(scr.buckets, nil)
	}
	buckets := scr.buckets[:need]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for v := 0; v < n; v++ {
		if d[v] <= maxd {
			buckets[d[v]] = append(buckets[d[v]], int32(v))
		}
	}
	for cost := int32(0); int(cost) < len(buckets); cost++ {
		for _, v := range buckets[cost] {
			if d[v] != cost {
				continue // stale entry
			}
			nc := cost + 1
			for _, w := range g.Neighbors(int(v)) {
				if d[w] > nc {
					d[w] = nc
					if int(nc) < len(buckets) {
						buckets[nc] = append(buckets[nc], w)
					}
				}
			}
		}
	}
}

// ApproxTreeScratch computes a Steiner tree by the metric-closure MST
// 2-approximation and returns the vertex set of the resulting tree (a
// connected subgraph containing all terminals, pruned to a tree) in
// ascending order. The edge count is len(nodes)-1; the tree size is
// within a factor 2(1−1/t) of optimal. The returned set aliases scr and
// is invalidated by the next call on the same scratch.
func ApproxTreeScratch(g *graph.Graph, terminals []int, scr *Scratch) []int {
	t := len(terminals)
	if t == 0 {
		panic("steiner: no terminals")
	}
	if t == 1 {
		scr.out = append(scr.out[:0], terminals[0])
		return scr.out
	}
	n := g.N()
	// BFS from each terminal (distance + parent forest).
	dist := growRows(&scr.distArena, &scr.dist, t, n)
	parent := growRows(&scr.parentArena, &scr.parent, t, n)
	for i, term := range terminals {
		scr.queue = g.BFS(term, dist[i], parent[i], scr.queue)
	}
	// Prim's MST over the terminal metric closure.
	if cap(scr.inTree) < t {
		scr.inTree = make([]bool, t)
		scr.key = make([]int32, t)
		scr.from = make([]int, t)
	}
	inTree, key, from := scr.inTree[:t], scr.key[:t], scr.from[:t]
	for i := 0; i < t; i++ {
		inTree[i] = false
		key[i] = math.MaxInt32
	}
	key[0] = 0
	from[0] = -1
	medges := scr.medges[:0]
	for iter := 0; iter < t; iter++ {
		best := -1
		for i := 0; i < t; i++ {
			if !inTree[i] && (best < 0 || key[i] < key[best]) {
				best = i
			}
		}
		if key[best] >= math.MaxInt32/2 {
			panic("steiner: terminals not mutually connected")
		}
		inTree[best] = true
		if from[best] >= 0 {
			medges = append(medges, medge{from[best], best})
		}
		for j := 0; j < t; j++ {
			if !inTree[j] {
				d := dist[best][terminals[j]]
				if d >= 0 && d < key[j] {
					key[j] = d
					from[j] = best
				}
			}
		}
	}
	scr.medges = medges
	// Union the expanded shortest paths via a mark array (replaces the
	// old map; ascending collection matches the old sorted output).
	if cap(scr.nodeMark) < n {
		scr.nodeMark = make([]bool, n)
	}
	mark := scr.nodeMark[:n]
	for i := range mark {
		mark[i] = false
	}
	for _, term := range terminals {
		mark[term] = true
	}
	for _, e := range medges {
		// Walk from terminal[e.b] back to terminal[e.a] via parents of
		// the BFS rooted at terminal[e.a].
		cur := int32(terminals[e.b])
		for cur >= 0 && int(cur) != terminals[e.a] {
			mark[cur] = true
			cur = parent[e.a][cur]
		}
	}
	nodes := scr.nodes[:0]
	for v := 0; v < n; v++ {
		if mark[v] {
			nodes = append(nodes, v)
		}
	}
	scr.nodes = nodes
	return pruneToSteinerScratch(g, nodes, terminals, scr)
}

// pruneToSteinerScratch prunes the connected subgraph induced by nodes
// to a tree on the terminals: it builds a BFS spanning tree and peels
// non-terminal leaves. The returned set aliases scr.out.
func pruneToSteinerScratch(g *graph.Graph, nodes, terminals []int, scr *Scratch) []int {
	if scr.gws == nil {
		scr.gws = graph.NewWorkspace()
	}
	gw := scr.gws
	keep := gw.Mask(g.N())
	for i := range keep {
		keep[i] = false
	}
	for _, v := range nodes {
		keep[v] = true
	}
	sub := g.InduceInto(gw, keep)
	n := sub.G.N()
	if cap(scr.termMark) < g.N() {
		scr.termMark = make([]bool, g.N())
	}
	termMark := scr.termMark[:g.N()]
	for _, t := range terminals {
		termMark[t] = true
	}
	if cap(scr.isTerm) < n {
		scr.isTerm = make([]bool, n)
	}
	isTerm := scr.isTerm[:n]
	for v := 0; v < n; v++ {
		isTerm[v] = termMark[sub.Orig[v]]
	}
	for _, t := range terminals {
		termMark[t] = false // restore all-false for the next call
	}
	// Build a BFS spanning tree of the (connected) induced subgraph.
	if cap(scr.par) < n {
		scr.par = make([]int32, n)
	}
	par := scr.par[:n]
	for i := range par {
		par[i] = -2
	}
	order := scr.queue[:0]
	par[0] = -1
	order = append(order, 0)
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, w := range sub.G.Neighbors(int(u)) {
			if par[w] == -2 {
				par[w] = u
				order = append(order, w)
			}
		}
	}
	scr.queue = order[:0]
	if cap(scr.deg) < n {
		scr.deg = make([]int, n)
		scr.alive = make([]bool, n)
	}
	deg, alive := scr.deg[:n], scr.alive[:n]
	for v := 0; v < n; v++ {
		deg[v] = 0
		alive[v] = true
	}
	for v := 0; v < n; v++ {
		if par[v] >= 0 {
			deg[v]++
			deg[par[v]]++
		}
	}
	// Peel non-terminal leaves.
	queue := scr.peel[:0]
	for v := 0; v < n; v++ {
		if deg[v] <= 1 && !isTerm[v] {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] || isTerm[v] || deg[v] > 1 {
			continue
		}
		alive[v] = false
		// its unique tree neighbor loses a degree
		nb := int32(-1)
		if par[v] >= 0 && alive[par[v]] {
			nb = par[v]
		} else {
			for w := 0; w < n; w++ {
				if alive[w] && par[w] == int32(v) {
					nb = int32(w)
					break
				}
			}
		}
		if nb >= 0 {
			deg[nb]--
			if deg[nb] <= 1 && !isTerm[nb] {
				queue = append(queue, int(nb))
			}
		}
	}
	scr.peel = queue[:0]
	out := scr.out[:0]
	for v := 0; v < n; v++ {
		if alive[v] {
			out = append(out, int(sub.Orig[v]))
		}
	}
	scr.out = out
	return out
}
