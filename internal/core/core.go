// Package core implements the paper's primary contribution: the pruning
// algorithms that extract, from a faulty network, a large connected
// subnetwork whose expansion is certifiably close to the fault-free
// network's.
//
//   - Prune (Figure 1, Theorem 2.1): node-expansion pruning for
//     adversarial faults. Repeatedly culls any set S_i with
//     |Γ(S_i)| ≤ α·ε·|S_i| and |S_i| ≤ |G_i|/2; the survivor H has
//     |H| ≥ n − k·f/α and expansion ≥ (1−1/k)·α when ε = 1−1/k and the
//     adversary had f ≤ α·n/(4k)... (precisely: k·f/α ≤ n/4).
//
//   - Prune2 (Figure 2, Theorem 3.4): edge-expansion pruning for random
//     faults. Culls connected sets with |(S_i, G_i∖S_i)| ≤ αe·ε·|S_i|
//     after compactification K_{G_i}(S_i) (Lemma 3.3); w.h.p. the
//     survivor has |H| ≥ n/2 and edge expansion ≥ ε·αe when the fault
//     probability is at most ≈ 1/(2e·δ⁴σ).
//
//   - UpfalPrune: the size-only baseline in the spirit of Upfal [28] —
//     it keeps n−O(f) nodes in expanders but certifies nothing about the
//     survivor's expansion (experiment E11 quantifies the difference).
//
// The paper's culling step is existential ("while ∃S_i…"); this package
// realises it with the layered cut finders of package cuts. Every culled
// set is re-validated against the predicate before removal, so the
// certificates are sound irrespective of heuristic quality; heuristic
// *in*completeness can only make the survivor larger and the certificate
// more conservative, mirroring the paper's existence-only claim.
package core

import (
	"math"

	"faultexp/internal/compact"
	"faultexp/internal/cuts"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Options configures a pruning run. The zero value (plus an RNG) is a
// reasonable default.
type Options struct {
	// Finder is passed through to the cut-finding layer. Finder.RNG is
	// required.
	Finder cuts.Options
	// Ws is the workspace each culling round builds G_{i+1} into; nil
	// runs the rounds on a throwaway workspace. The returned Result.H
	// lives in workspace memory, so with a caller-owned Ws it may be
	// clobbered by any later build on it (the culling rounds also
	// invalidate every workspace-built graph the caller still holds,
	// except the input gf itself) — trial loops must extract their
	// scalars before the next injection.
	Ws *graph.Workspace
	// Scratch holds the pruning loop's reusable state: the Result
	// itself, the provenance array, and the cut-finder and
	// compactification workspaces; nil runs on a throwaway Scratch. A
	// warm trial loop that passes its own Scratch and Ws with
	// DiscardCulled allocates nothing; the returned Result is then
	// scratch memory, invalidated by the next pruning call on the same
	// scratch.
	Scratch *Scratch
	// DiscardCulled skips materializing Result.Culled (CulledTotal and
	// Iterations still count every cull) — the per-cull coordinate
	// copies are the one remaining allocation in scratch mode, and
	// measure loops only consume the aggregate.
	DiscardCulled bool
}

// Scratch holds the reusable state of a pruning run (see
// Options.Scratch). The zero value is ready to use; not safe for
// concurrent use.
type Scratch struct {
	res    Result
	orig   []int32
	sub    graph.Sub
	finder cuts.Workspace
	comp   compact.Scratch
}

// Result describes the outcome of a pruning run.
type Result struct {
	// H is the surviving subnetwork, with provenance into the input
	// faulty graph.
	H *graph.Sub
	// Culled lists every removed set (in input-graph coordinates), in
	// removal order.
	Culled [][]int
	// CulledTotal is the total number of removed vertices.
	CulledTotal int
	// Iterations is the number of culling rounds executed.
	Iterations int
	// Threshold is the culling predicate's right-hand side factor
	// (α·ε for Prune, αe·ε for Prune2).
	Threshold float64
	// CertifiedQuotient is the best (lowest) quotient the finder could
	// still locate in H when the loop stopped — the empirical
	// certificate that H has (node or edge) expansion above Threshold.
	// It is +Inf when H became too small to search.
	CertifiedQuotient float64
}

// SurvivorSize returns |H|.
func (r *Result) SurvivorSize() int { return r.H.G.N() }

// Prune implements Figure 1: given the faulty graph gf, the fault-free
// expansion alpha, and the degradation parameter eps ∈ (0,1) (the paper
// uses eps = 1−1/k), it culls low-node-expansion sets until none is
// found and returns the survivor with its certificate.
func Prune(gf *graph.Graph, alpha, eps float64, opt Options) *Result {
	return pruneLoop(gf, alpha*eps, opt, false)
}

// Prune2 implements Figure 2: edge-expansion culling of *connected* sets
// with Lemma 3.3 compactification, for the random-fault setting. alphaE
// is the fault-free edge expansion; eps the degradation (Theorem 3.4
// requires eps ≤ 1/(2δ)).
func Prune2(gf *graph.Graph, alphaE, eps float64, opt Options) *Result {
	return pruneLoop(gf, alphaE*eps, opt, true)
}

func pruneLoop(gf *graph.Graph, threshold float64, opt Options, edgeMode bool) *Result {
	ws, scr := opt.Ws, opt.Scratch
	if ws == nil {
		ws = graph.NewWorkspace()
	}
	if scr == nil {
		scr = &Scratch{}
	}
	res := &scr.res
	*res = Result{Threshold: threshold, CertifiedQuotient: math.Inf(1), Culled: res.Culled[:0]}
	// Identity provenance on the retained array.
	if cap(scr.orig) < gf.N() {
		scr.orig = make([]int32, gf.N())
	}
	scr.orig = scr.orig[:gf.N()]
	for i := range scr.orig {
		scr.orig[i] = int32(i)
	}
	scr.sub = graph.Sub{G: gf, Orig: scr.orig}
	cur := &scr.sub
	mode := cuts.NodeMode
	connected := false
	if edgeMode {
		mode = cuts.EdgeMode
		connected = true
	}
	// The loop terminates: each cull strictly shrinks the graph.
	for {
		n := cur.G.N()
		if n < 2 {
			break
		}
		best, ok := cuts.FindBestWs(cur.G, mode, n/2, connected, opt.Finder, &scr.finder)
		if !ok {
			break
		}
		quot := best.NodeAlpha
		if edgeMode {
			quot = best.EdgeAlpha
		}
		if quot > threshold {
			// No cullable set found: H certified at this quotient.
			res.CertifiedQuotient = quot
			break
		}
		cullSet := best.Set
		if edgeMode {
			// Figure 2 line 3: K_i ← K_{G_i}(S_i). Compactification
			// never increases the edge quotient (Lemma 3.3), so the
			// predicate still holds for the culled set.
			cullSet = compact.CompactifyScratch(cur.G, cullSet, &scr.comp)
		}
		// Record the cull in input coordinates.
		if !opt.DiscardCulled {
			orig := make([]int, len(cullSet))
			for i, v := range cullSet {
				orig[i] = int(cur.Orig[v])
			}
			res.Culled = append(res.Culled, orig)
		}
		res.CulledTotal += len(cullSet)
		res.Iterations++
		// G_{i+1} ← G_i ∖ K_i, composed with provenance.
		keep := ws.Mask(cur.G.N())
		for i := range keep {
			keep[i] = true
		}
		for _, v := range cullSet {
			keep[v] = false
		}
		next := cur.G.InduceInto(ws, keep)
		// Compose provenance in place (next.Orig is slot-owned).
		for i, mid := range next.Orig {
			next.Orig[i] = cur.Orig[mid]
		}
		cur = next
	}
	res.H = cur
	return res
}

// UpfalPrune is the size-only baseline: starting from the faulty graph,
// it repeatedly deletes any vertex that has lost more than (1−theta) of
// its original degree (origDegree gives the fault-free degrees, indexed
// by the provenance in gf), then returns the largest connected component.
// theta ∈ (0,1]; Upfal-style analyses use a constant like 3/4.
func UpfalPrune(gf *graph.Sub, origDegree func(orig int32) int, theta float64) *Result {
	res := &Result{Threshold: theta, CertifiedQuotient: math.Inf(1)}
	cur := gf
	for {
		drop := []int{}
		for v := 0; v < cur.G.N(); v++ {
			if float64(cur.G.Degree(v)) < theta*float64(origDegree(cur.Orig[v])) {
				drop = append(drop, v)
			}
		}
		if len(drop) == 0 {
			break
		}
		orig := make([]int, len(drop))
		for i, v := range drop {
			orig[i] = int(cur.Orig[v])
		}
		res.Culled = append(res.Culled, orig)
		res.CulledTotal += len(drop)
		res.Iterations++
		next := cur.G.RemoveVertices(drop)
		comp := make([]int32, next.G.N())
		for i, mid := range next.Orig {
			comp[i] = cur.Orig[mid]
		}
		cur = &graph.Sub{G: next.G, Orig: comp}
	}
	res.H = cur.LargestComponentSub()
	res.CulledTotal = gf.G.N() - res.H.G.N()
	return res
}

// MeasureResidual evaluates the survivor's expansion with the heuristic
// estimators — the quantity the theorems guarantee. Returns node and
// edge expansion estimates (exact on small survivors).
func MeasureResidual(h *graph.Graph, rng *xrand.RNG) (nodeAlpha, edgeAlpha float64) {
	var ws cuts.Workspace
	return MeasureResidualWs(h, rng, &ws)
}

// MeasureResidualWs is MeasureResidual on caller-owned finder scratch
// (only scalars are returned, so nothing aliases ws after the call).
func MeasureResidualWs(h *graph.Graph, rng *xrand.RNG, ws *cuts.Workspace) (nodeAlpha, edgeAlpha float64) {
	if h.N() < 2 {
		return 0, 0
	}
	opt := cuts.Options{RNG: rng}
	rn, _ := cuts.EstimateNodeExpansionWs(h, opt, ws)
	nodeAlpha = rn.NodeAlpha
	re, _ := cuts.EstimateEdgeExpansionWs(h, opt, ws)
	return nodeAlpha, re.EdgeAlpha
}

// --- Theory calculators used by experiments to mark paper-predicted
// operating points ---

// Theorem21SizeBound returns the survivor-size lower bound n − k·f/α of
// Theorem 2.1.
func Theorem21SizeBound(n, f int, alpha float64, k float64) float64 {
	return float64(n) - k*float64(f)/alpha
}

// Theorem21Feasible reports whether the Theorem 2.1 precondition
// k·f/α ≤ n/4 holds.
func Theorem21Feasible(n, f int, alpha float64, k float64) bool {
	return k*float64(f)/alpha <= float64(n)/4
}

// Theorem21ExpansionBound returns the survivor-expansion lower bound
// (1−1/k)·α.
func Theorem21ExpansionBound(alpha, k float64) float64 {
	return (1 - 1/k) * alpha
}

// Theorem34MaxFaultProb returns the fault-probability threshold
// p ≤ 1/(2e·δ⁴·σ) under which Theorem 3.4 guarantees Prune2 succeeds
// w.h.p.
func Theorem34MaxFaultProb(delta int, sigma float64) float64 {
	d := float64(delta)
	return 1 / (2 * math.E * d * d * d * d * sigma)
}

// Theorem34MaxEps returns the largest degradation parameter ε = 1/(2δ)
// admitted by Theorem 3.4.
func Theorem34MaxEps(delta int) float64 {
	return 1 / (2 * float64(delta))
}

// Theorem31FaultProb returns the disintegration fault probability of
// Theorem 3.1 for a chain graph built with chain length k from a base
// expander of degree delta: p = 4·ln(δ)/k (the proof's operating point).
func Theorem31FaultProb(delta, k int) float64 {
	return 4 * math.Log(float64(delta)) / float64(k)
}

// VerifyPruneGuarantee checks a Prune result against Theorem 2.1: given
// the fault-free size n, fault count f, expansion alpha and k, it
// reports whether |H| ≥ n − k·f/α held (sizeOK), whether the measured
// residual node expansion met (1−1/k)·α (expOK), and the two bounds.
func VerifyPruneGuarantee(res *Result, n, f int, alpha, k float64, rng *xrand.RNG) (sizeOK, expOK bool, sizeBound, expBound float64) {
	sizeBound = Theorem21SizeBound(n, f, alpha, k)
	expBound = Theorem21ExpansionBound(alpha, k)
	sizeOK = float64(res.SurvivorSize()) >= sizeBound-1e-9
	nodeAlpha, _ := MeasureResidual(res.H.G, rng)
	expOK = nodeAlpha >= expBound-1e-9
	return sizeOK, expOK, sizeBound, expBound
}
