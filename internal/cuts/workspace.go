package cuts

// Workspace: reusable per-worker scratch for the cut finder. FindBestWs
// runs the exact same search as FindBest — same candidate sets, same
// draw sequence, same winner — but every intermediate (the Fiedler
// scratch, sweep orders, component materialization, witness evaluation,
// the incumbent set itself) lives in caller-owned buffers, so the
// pruning trial loop's steady state allocates nothing.

import (
	"faultexp/internal/expansion"
	"faultexp/internal/graph"
	"faultexp/internal/spectral"
	"faultexp/internal/xrand"
)

// Workspace is reusable scratch for FindBestWs and the Ws expansion
// estimators. The zero value is ready to use; buffers grow on demand and
// are retained across calls. The Result.Set returned by the Ws entry
// points aliases workspace memory and is valid only until the next call
// on the same workspace. Not safe for concurrent use.
type Workspace struct {
	scr  finderScratch
	spec spectral.Scratch
	set  expansion.Tracker // prefix scans, local search and consider

	order   []int // Fiedler sweep order
	rev     []int // reversed sweep order
	perm    []int // local-search visit order
	seedBuf []int // ball-seed sample buffer
	seedMap map[int]int

	compOff   []int // component offsets (counting sort)
	compArena []int // component members, in label order
	localOut  []int // local-search output set
	bestSet   []int // incumbent witness set (Result.Set points here)

	sortKey []float64 // Fiedler values during the sweep sort
	sortCmp func(a, b int) int

	// Per-layer generators, reseeded each search from the base draw so
	// the randomness-isolation contract of FindBest (each layer XORs the
	// base with its own constant) is preserved without allocating RNGs.
	sweepRNG, ballRNG, localRNG xrand.RNG

	gw graph.Workspace // private: set masks and component labels
}

// storeComponents materializes per-label member lists from a component
// labeling into the workspace's counting-sort buffers: component i then
// spans compArena[compOff[i]:compOff[i+1]], members ascending; vertices
// labelled -1 (outside the mask) are skipped. Copying out of the
// labeling matters: consider() may itself run a components pass,
// clobbering the labels slice.
func (ws *Workspace) storeComponents(labels []int32, sizes []int) {
	nc := len(sizes)
	if cap(ws.compOff) < nc+1 {
		ws.compOff = make([]int, nc+1)
	}
	off := ws.compOff[:nc+1]
	off[0] = 0
	for i, s := range sizes {
		off[i+1] = off[i] + s
	}
	total := off[nc]
	if cap(ws.compArena) < total {
		ws.compArena = make([]int, total)
	}
	arena := ws.compArena[:total]
	for v, l := range labels {
		if l >= 0 {
			arena[off[l]] = v
			off[l]++
		}
	}
	for i := nc; i > 0; i-- {
		off[i] = off[i-1]
	}
	off[0] = 0
	ws.compOff = off
	ws.compArena = arena
}

// component returns the i-th materialized component (see
// storeComponents).
func (ws *Workspace) component(i int) []int {
	return ws.compArena[ws.compOff[i]:ws.compOff[i+1]]
}

// finder carries one FindBestWs search: the query, the workspace, and
// the incumbent. consider is the single evaluation funnel — it applies
// the size and connectivity filters, evaluates the witness, and keeps
// the strict-improvement incumbent, exactly as the allocating path did.
type finder struct {
	g         *graph.Graph
	mode      Mode
	maxSize   int
	connected bool
	ws        *Workspace
	best      expansion.Result
	have      bool
	observe   func(set []int) // test hook: sees every candidate pre-filter
}

func (f *finder) consider(set []int) {
	if f.observe != nil {
		f.observe(set)
	}
	if len(set) == 0 || len(set) > f.maxSize {
		return
	}
	if f.connected && !isConnectedSetWs(f.g, set, f.ws) {
		return
	}
	t := &f.ws.set
	t.Reset(f.g, set)
	if f.have && !(setQuotient(t, f.mode) < quotient(f.best, f.mode)) {
		return
	}
	f.ws.bestSet = append(f.ws.bestSet[:0], set...)
	f.best = expansion.Result{
		Set:       f.ws.bestSet,
		Size:      len(set),
		NodeAlpha: setQuotient(t, NodeMode),
		EdgeAlpha: setQuotient(t, EdgeMode),
		Boundary:  t.Boundary(),
		CutEdges:  t.Cut(),
	}
	f.have = true
}

// FindBestWs is FindBest on caller-owned scratch: same candidate layers,
// same draw sequence, same winner, but the returned Result.Set aliases
// ws and is valid only until the next call on the same workspace.
func FindBestWs(g *graph.Graph, mode Mode, maxSize int, connected bool, opt Options, ws *Workspace) (expansion.Result, bool) {
	n := g.N()
	if n < 2 || maxSize < 1 {
		return expansion.Result{}, false
	}
	if maxSize > n-1 {
		maxSize = n - 1
	}
	opt = opt.withDefaults()

	f := finder{g: g, mode: mode, maxSize: maxSize, connected: connected, ws: ws}

	// Disconnected inputs first: every connected component that fits the
	// size budget is a zero-quotient set (empty boundary), and the
	// pruning loops rely on such sets never being missed — an adversary
	// that disconnects a shard must see it culled deterministically.
	if labels, sizes := g.ComponentsInto(&ws.gw, nil); len(sizes) > 1 {
		// Materialize before the consider loop: consider's connectivity
		// check reruns a components pass on the same graph workspace.
		ws.storeComponents(labels, sizes)
		for i := range sizes {
			f.consider(ws.component(i))
		}
		if f.have && quotient(f.best, mode) == 0 {
			return f.best, true
		}
	}

	if n <= opt.ExactMaxN {
		if r, ok := expansion.ExactMin(g, maxSize, mode == EdgeMode, connected); ok {
			f.consider(r.Set)
		}
	} else {
		// Each layer draws from its own generator derived from a single
		// base value, so the layers are randomness-isolated: disabling
		// one layer (the E15 ablations) leaves the others' candidate
		// pools bit-identical, and the full suite's pool is exactly the
		// union of the ablations' pools.
		base := opt.RNG.Uint64()
		if !opt.DisableSweep {
			ws.sweepRNG.Reseed(base ^ 0xA5A5A5A5A5A5A5A5)
			sweepCandidates(g, mode, maxSize, connected, &ws.sweepRNG, ws, &f)
		}
		if !opt.DisableBalls {
			ws.ballRNG.Reseed(base ^ 0x5A5A5A5A5A5A5A5A)
			ballCandidates(g, maxSize, &ws.ballRNG, ws, &f)
		}
		// Local search refinement of the incumbent (unconstrained mode
		// only; connectivity-preserving moves are handled by the ball
		// sweep supplying connected candidates).
		if f.have && !connected && !opt.DisableLocalSearch {
			ws.localRNG.Reseed(base ^ 0x3C3C3C3C3C3C3C3C)
			improved := localImprove(g, f.best.Set, mode, maxSize, localSearchPasses, &ws.localRNG, ws)
			f.consider(improved)
		}
	}
	return f.best, f.have
}

// bestComponentOfWs splits set into connected components and feeds each
// to the finder (for EdgeMode at least one component has quotient no
// worse than the whole set).
func bestComponentOfWs(g *graph.Graph, set []int, ws *Workspace, f *finder) {
	labels, sizes := g.ComponentsInto(&ws.gw, ws.gw.SetMask(g.N(), set))
	if len(sizes) <= 1 {
		return
	}
	ws.storeComponents(labels, sizes)
	for i := range sizes {
		f.consider(ws.component(i))
	}
}

// isConnectedSetWs reports whether set is non-empty and induces a
// connected subgraph of g, labelling g under set's mask in the
// workspace's private graph scratch.
func isConnectedSetWs(g *graph.Graph, set []int, ws *Workspace) bool {
	if len(set) <= 1 {
		return len(set) == 1
	}
	_, sizes := g.ComponentsInto(&ws.gw, ws.gw.SetMask(g.N(), set))
	return len(sizes) == 1
}
