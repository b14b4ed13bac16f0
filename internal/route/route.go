// Package route measures a network's routing ability — the second §1.3
// application: "the ability of a network to route information is
// preserved because it is closely related to its expansion
// [Scheideler 26]". The workload is the classic random-pairs permutation
// experiment: route r source–destination pairs along shortest paths and
// measure edge congestion and path stretch. Networks with preserved
// expansion route random traffic with balanced congestion; bottlenecked
// networks funnel everything through their cut.
package route

import (
	"fmt"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Result summarizes one routing experiment.
type Result struct {
	Pairs      int // routed pairs (unreachable pairs are skipped)
	Unreached  int // pairs whose endpoints were disconnected
	Congestion int // max paths over one edge
	MaxLen     int // longest routed path (hops)
	TotalLen   int // sum of path lengths
}

// AvgLen returns the mean routed path length.
func (r Result) AvgLen() float64 {
	if r.Pairs == 0 {
		return 0
	}
	return float64(r.TotalLen) / float64(r.Pairs)
}

// CongestionPerPair normalizes congestion by the offered load.
func (r Result) CongestionPerPair() float64 {
	if r.Pairs == 0 {
		return 0
	}
	return float64(r.Congestion) / float64(r.Pairs)
}

// RandomPairs routes `pairs` uniformly random source–destination pairs
// along BFS shortest paths and returns the congestion profile. Paths are
// deterministic given the RNG seed (BFS tie-breaking is fixed by vertex
// order).
func RandomPairs(g *graph.Graph, pairs int, rng *xrand.RNG) Result {
	n := g.N()
	res := Result{}
	if n < 2 || pairs <= 0 {
		return res
	}
	congestion := make(map[[2]int32]int)
	// Group pairs by source so one BFS serves all pairs from it.
	bySrc := map[int][]int{}
	for i := 0; i < pairs; i++ {
		s := rng.Intn(n)
		d := rng.Intn(n - 1)
		if d >= s {
			d++
		}
		bySrc[s] = append(bySrc[s], d)
	}
	dist, parent := make([]int32, n), make([]int32, n)
	var queue []int32
	for src, dsts := range bySrc {
		queue = g.BFS(src, dist, parent, queue)
		for _, dst := range dsts {
			if dist[dst] < 0 {
				res.Unreached++
				continue
			}
			res.Pairs++
			plen := 0
			for cur := int32(dst); parent[cur] >= 0; cur = parent[cur] {
				a, b := cur, parent[cur]
				if a > b {
					a, b = b, a
				}
				key := [2]int32{a, b}
				congestion[key]++
				if congestion[key] > res.Congestion {
					res.Congestion = congestion[key]
				}
				plen++
			}
			res.TotalLen += plen
			if plen > res.MaxLen {
				res.MaxLen = plen
			}
		}
	}
	return res
}

// Permutation routes a full random permutation: every vertex sends to a
// distinct random destination (a derangement is not enforced; self-pairs
// route zero-length paths). This is the classical permutation-routing
// load used in the interconnection-network literature.
func Permutation(g *graph.Graph, rng *xrand.RNG) Result {
	n := g.N()
	res := Result{}
	if n < 2 {
		return res
	}
	perm := rng.Perm(n)
	congestion := make(map[[2]int32]int)
	dist, parent := make([]int32, n), make([]int32, n)
	var queue []int32
	for src := 0; src < n; src++ {
		dst := perm[src]
		if dst == src {
			res.Pairs++
			continue
		}
		queue = g.BFS(src, dist, parent, queue)
		if dist[dst] < 0 {
			res.Unreached++
			continue
		}
		res.Pairs++
		plen := 0
		for cur := int32(dst); parent[cur] >= 0; cur = parent[cur] {
			a, b := cur, parent[cur]
			if a > b {
				a, b = b, a
			}
			key := [2]int32{a, b}
			congestion[key]++
			if congestion[key] > res.Congestion {
				res.Congestion = congestion[key]
			}
			plen++
		}
		res.TotalLen += plen
		if plen > res.MaxLen {
			res.MaxLen = plen
		}
	}
	return res
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("pairs=%d unreached=%d congestion=%d maxlen=%d avglen=%.2f",
		r.Pairs, r.Unreached, r.Congestion, r.MaxLen, r.AvgLen())
}
