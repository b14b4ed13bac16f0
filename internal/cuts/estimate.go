package cuts

import (
	"faultexp/internal/expansion"
	"faultexp/internal/graph"
)

// EstimateNodeExpansion returns the best witness for the graph's node
// expansion α = min_{|U| ≤ n/2} |Γ(U)|/|U|: exact for small graphs,
// heuristic (upper bound on the true α) for larger ones. The second
// return value reports whether the value is exact.
func EstimateNodeExpansion(g *graph.Graph, opt Options) (expansion.Result, bool) {
	var ws Workspace
	return EstimateNodeExpansionWs(g, opt, &ws)
}

// EstimateNodeExpansionWs is EstimateNodeExpansion on caller-owned
// scratch; the returned Set aliases ws and is invalidated by the next
// call on the same workspace.
func EstimateNodeExpansionWs(g *graph.Graph, opt Options, ws *Workspace) (expansion.Result, bool) {
	n := g.N()
	opt = opt.withDefaults()
	r, ok := FindBestWs(g, NodeMode, n/2, false, opt, ws)
	if !ok {
		return expansion.Result{}, false
	}
	return r, n <= opt.ExactMaxN
}

// EstimateEdgeExpansion returns the best witness for αe =
// min cut(U)/min(|U|,|V\U|) (the witness is always the small side, so
// the quotient equals the symmetric definition). Exact for small graphs,
// heuristic upper bound otherwise; the second return reports exactness.
func EstimateEdgeExpansion(g *graph.Graph, opt Options) (expansion.Result, bool) {
	var ws Workspace
	return EstimateEdgeExpansionWs(g, opt, &ws)
}

// EstimateEdgeExpansionWs is EstimateEdgeExpansion on caller-owned
// scratch; the returned Set aliases ws and is invalidated by the next
// call on the same workspace.
func EstimateEdgeExpansionWs(g *graph.Graph, opt Options, ws *Workspace) (expansion.Result, bool) {
	n := g.N()
	opt = opt.withDefaults()
	r, ok := FindBestWs(g, EdgeMode, n/2, false, opt, ws)
	if !ok {
		return expansion.Result{}, false
	}
	return r, n <= opt.ExactMaxN
}
