// Package faultexp is a library for studying how node and edge faults
// affect the expansion of networks, reproducing Bagchi, Bhargava,
// Chaudhary, Eppstein and Scheideler, "The Effect of Faults on Network
// Expansion" (SPAA 2004).
//
// The library answers the paper's central question — how many faults can
// a network sustain so that it still contains a linear-sized connected
// component with approximately the original expansion? — with working
// algorithms:
//
//   - Prune (Figure 1 / Theorem 2.1): extract a large subnetwork of
//     certified node expansion from an adversarially-faulted network.
//   - Prune2 (Figure 2 / Theorem 3.4): the edge-expansion analogue for
//     random faults, with Lemma 3.3 compactification.
//   - Span (§1.4): the paper's new parameter controlling random-fault
//     tolerance, with exact computation, sampling, and the constructive
//     Theorem 3.6 certificate for d-dimensional meshes.
//
// plus the full substrate: graph families (meshes, tori, hypercubes,
// butterflies, expanders, chain graphs, de Bruijn, shuffle-exchange…),
// expansion estimation (exact + spectral), fault models and adversaries,
// percolation sweeps, and fault-free-into-faulty embeddings.
//
// # Quick start
//
//	g := faultexp.Torus(16, 16)
//	rng := faultexp.NewRNG(1)
//	pat := faultexp.RandomNodeFaults(g, 0.01, rng)
//	faulty := pat.Apply(g)
//	res := faultexp.Prune2(faulty.G, 0.5, 0.125, rng)
//	fmt.Println("survivor:", res.SurvivorSize(), "certified quotient:", res.CertifiedQuotient)
//
// See the examples/ directory for complete programs, README.md for the
// sweep engine and its measures, and internal/experiments (one e*.go
// file per theorem/claim, run by `faultexp experiment`) for the
// theorem-by-theorem reproduction.
package faultexp

import (
	"io"

	"faultexp/internal/agree"
	"faultexp/internal/balance"
	"faultexp/internal/core"
	"faultexp/internal/cuts"
	"faultexp/internal/embed"
	"faultexp/internal/expansion"
	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/perc"
	"faultexp/internal/route"
	"faultexp/internal/span"
	"faultexp/internal/spectral"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"

	// Imported for its side effect of registering the built-in sweep
	// measures (the prune/gamma/span/percolation pipelines plus the
	// measures extracted from the E1–E19 experiment kernels).
	_ "faultexp/internal/experiments"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
type Graph = graph.Graph

// Sub is an induced subgraph with provenance back to its parent graph.
type Sub = graph.Sub

// RNG is the deterministic random generator used across the library.
type RNG = xrand.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// Workspace is per-worker reusable scratch memory for the trial hot
// path: fault injection, induced-subgraph construction, and component
// labelling reuse its buffers instead of allocating per trial. One
// Workspace per goroutine, never shared; a workspace build never
// clobbers the graph it reads from, but may clobber any other
// workspace-built graph (see the README architecture note for the
// ownership rules).
type Workspace = graph.Workspace

// NewWorkspace returns an empty Workspace (buffers grow on demand).
func NewWorkspace() *Workspace { return graph.NewWorkspace() }

// NewBuilder starts constructing a graph on n vertices.
func NewBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an undirected edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// --- Graph families (package gen) ---

// GraphFamily is one entry of the graph-family registry: a named,
// deterministic, seeded constructor with self-describing metadata
// (size-token syntax, k-parameter use, doc line).
type GraphFamily = gen.Family

// GraphFamilies returns the registered families in canonical order.
func GraphFamilies() []GraphFamily { return gen.Families() }

// GraphFamilyByName resolves a registered family name ("mesh", "gnp", …).
func GraphFamilyByName(name string) (GraphFamily, bool) { return gen.FamilyByName(name) }

// BuildFamily constructs a registered family from its name, size token,
// and family parameter k (chain length / rewired edges / shortcut
// edges, per the family's KUse). Randomized families draw from rng.
func BuildFamily(family, size string, k int, rng *RNG) (*Graph, []int, error) {
	return gen.FromFamily(family, size, k, rng)
}

// Mesh returns the d-dimensional mesh with the given side lengths.
func Mesh(dims ...int) *Graph { return gen.Mesh(dims...) }

// Torus returns the d-dimensional torus with the given side lengths.
func Torus(dims ...int) *Graph { return gen.Torus(dims...) }

// CAN returns a CAN-style overlay: a dim-dimensional torus with the
// given side (§4 of the paper).
func CAN(dim, side int) *Graph { return gen.CAN(dim, side) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// Butterfly returns the d-dimensional butterfly network.
func Butterfly(d int) *Graph { return gen.Butterfly(d) }

// Expander returns a constant-degree expander (Margulis–Gabber–Galil)
// on m² vertices.
func Expander(m int) *Graph { return gen.GabberGalil(m) }

// RandomRegular returns a random d-regular graph on n vertices.
func RandomRegular(n, d int, rng *RNG) *Graph { return gen.RandomRegular(n, d, rng) }

// GNP returns an Erdős–Rényi random graph G(n, p).
func GNP(n int, p float64, rng *RNG) *Graph { return gen.GNP(n, p, rng) }

// RingLattice returns the Watts–Strogatz substrate C(n, d): n vertices
// on a cycle, each joined to its d nearest neighbors (d even).
func RingLattice(n, d int) *Graph { return gen.RingLattice(n, d) }

// SmallWorld returns a Watts–Strogatz small-world graph: RingLattice(n,
// d) with `rewires` randomly chosen edges redirected to random
// endpoints (edge count preserved).
func SmallWorld(n, d, rewires int, rng *RNG) *Graph { return gen.SmallWorld(n, d, rewires, rng) }

// AddShortcuts returns base plus k random shortcut edges between
// non-adjacent vertex pairs — the Hayashi–Matsukubo robustness
// hardening for geographic (lattice-like) networks.
func AddShortcuts(base *Graph, k int, rng *RNG) *Graph { return gen.Shortcut(base, k, rng) }

// ChainGraph is the Theorem 2.3 construction (edges replaced by chains).
type ChainGraph = gen.ChainGraph

// ChainReplace replaces every edge of base with a chain of k vertices.
func ChainReplace(base *Graph, k int) *ChainGraph { return gen.ChainReplace(base, k) }

// --- Expansion (packages expansion, cuts, spectral) ---

// ExpansionResult describes a located cut witness.
type ExpansionResult = expansion.Result

// NodeExpansion estimates the graph's node expansion
// α = min |Γ(U)|/|U| over |U| ≤ n/2 (exact for n ≤ 22; the best
// heuristic witness otherwise). The boolean reports exactness.
func NodeExpansion(g *Graph, rng *RNG) (ExpansionResult, bool) {
	return cuts.EstimateNodeExpansion(g, cuts.Options{RNG: rng})
}

// EdgeExpansion estimates the graph's edge expansion αe.
func EdgeExpansion(g *Graph, rng *RNG) (ExpansionResult, bool) {
	return cuts.EstimateEdgeExpansion(g, cuts.Options{RNG: rng})
}

// Lambda2 returns the second-smallest eigenvalue of the normalized
// Laplacian (algebraic connectivity), computed matrix-free by Lanczos.
func Lambda2(g *Graph, rng *RNG) float64 { return spectral.Lambda2(g, rng) }

// CheegerBounds converts λ₂ into the two-sided conductance bound
// λ₂/2 ≤ h(G) ≤ √(2λ₂).
func CheegerBounds(lambda2 float64) (lower, upper float64) {
	return spectral.CheegerBounds(lambda2)
}

// --- Faults (package faults) ---

// FaultPattern is a set of faulty nodes. Its Nodes are always sorted
// ascending and duplicate-free (see faults.NewPattern).
type FaultPattern = faults.Pattern

// NewFaultPattern canonicalizes raw node indices into a FaultPattern
// (sorted, deduplicated; the input slice is taken over).
func NewFaultPattern(nodes []int) FaultPattern { return faults.NewPattern(nodes) }

// Adversary selects worst-case fault sets.
type Adversary = faults.Adversary

// FaultModel is the uniform fault-injection interface the sweep engine
// drives: from the same draws, Inject builds the faulted subgraph into a
// Workspace and Components returns only its component sizes, without
// building it where the model allows.
type FaultModel = faults.Model

// FaultModels returns the built-in fault models (iid-node, iid-edge,
// adversarial/bottleneck) in canonical order.
func FaultModels() []FaultModel { return faults.Models() }

// FaultModelByName resolves a canonical fault-model name.
func FaultModelByName(name string) (FaultModel, bool) { return faults.ModelByName(name) }

// RandomNodeFaults fails each node independently with probability p.
func RandomNodeFaults(g *Graph, p float64, rng *RNG) FaultPattern {
	return faults.IIDNodes(g, p, rng)
}

// AdversarialFaults applies the bottleneck-targeting adversary with
// budget f — the strategy that makes Theorem 2.1 tight.
func AdversarialFaults(g *Graph, f int, rng *RNG) FaultPattern {
	return faults.BottleneckAdversary{}.Select(g, f, rng)
}

// --- Pruning (package core) ---

// PruneResult is the outcome of a pruning run, with the survivor,
// cull log, and expansion certificate.
type PruneResult = core.Result

// Prune runs the Figure 1 algorithm: cull node-expansion bottlenecks of
// the faulty graph gf below alpha·eps; Theorem 2.1 guarantees
// |H| ≥ n − k·f/α at eps = 1−1/k.
func Prune(gf *Graph, alpha, eps float64, rng *RNG) *PruneResult {
	return core.Prune(gf, alpha, eps, core.Options{Finder: cuts.Options{RNG: rng}})
}

// Prune2 runs the Figure 2 algorithm: cull connected edge-expansion
// bottlenecks below alphaE·eps with compactification; Theorem 3.4
// guarantees |H| ≥ n/2 w.h.p. below the span fault threshold.
func Prune2(gf *Graph, alphaE, eps float64, rng *RNG) *PruneResult {
	return core.Prune2(gf, alphaE, eps, core.Options{Finder: cuts.Options{RNG: rng}})
}

// ResidualExpansion measures the survivor's node and edge expansion.
func ResidualExpansion(h *Graph, rng *RNG) (nodeAlpha, edgeAlpha float64) {
	return core.MeasureResidual(h, rng)
}

// --- Span (package span) ---

// SpanEstimate is the result of a span computation.
type SpanEstimate = span.Estimate

// ExactSpan computes the true span of a small graph (n ≤ 20) by
// exhaustive compact-set enumeration.
func ExactSpan(g *Graph) SpanEstimate { return span.Exact(g) }

// SampledSpan estimates the span of a large graph from random compact
// sets.
func SampledSpan(g *Graph, samples int, rng *RNG) SpanEstimate {
	return span.Sampled(g, samples, rng)
}

// SpanFaultTolerance returns Theorem 3.4's fault-probability threshold
// 1/(2e·δ⁴σ).
func SpanFaultTolerance(maxDegree int, sigma float64) float64 {
	return span.FaultToleranceFromSpan(maxDegree, sigma)
}

// MeshSpanCertificate runs the constructive Theorem 3.6 bound for one
// compact set of a mesh built with Mesh(dims...): a boundary-spanning
// tree with at most 2(|B|−1) edges.
func MeshSpanCertificate(g *Graph, dims []int, set []int) (span.MeshCert, error) {
	return span.MeshBoundaryTree(g, dims, set)
}

// --- Percolation (package perc) ---

// PercolationMode selects site or bond percolation.
type PercolationMode = perc.Mode

// Site and Bond are the percolation modes.
const (
	Site = perc.Site
	Bond = perc.Bond
)

// PercolationCurve runs averaged Newman–Ziff sweeps and returns the
// whole γ(p) curve.
func PercolationCurve(g *Graph, mode PercolationMode, trials int, rng *RNG) *perc.Curve {
	return perc.Sweep(g, mode, trials, rng)
}

// CriticalProbability estimates the occupation probability at which the
// expected largest-component fraction reaches target.
func CriticalProbability(g *Graph, mode PercolationMode, target float64, trials, iters int, rng *RNG) float64 {
	return perc.CriticalP(g, mode, target, trials, iters, rng)
}

// --- Load balancing (package balance, §1.3 application) ---

// Diffuse runs the given number of first-order diffusion rounds on a
// load vector and returns the result (load is not modified).
func Diffuse(g *Graph, load []float64, rounds int) []float64 {
	return balance.Diffuse(g, load, rounds)
}

// RoundsToBalance reports how many diffusion rounds the network needs to
// bring a load vector within tol of uniform — the §1.3 operational
// consequence of expansion.
func RoundsToBalance(g *Graph, load []float64, tol float64, maxRounds int) int {
	return balance.RoundsToBalance(g, load, tol, maxRounds)
}

// --- Agreement (package agree, §1.3 application) ---

// Agreement is an almost-everywhere-agreement execution: iterated
// majority with Byzantine nodes that push the honest minority value.
type Agreement = agree.Instance

// NewAgreement initializes an agreement run on g with the given
// Byzantine nodes; honest nodes start true with probability pTrue.
func NewAgreement(g *Graph, byzantine []int, pTrue float64, rng *RNG) *Agreement {
	return agree.NewInstance(g, byzantine, pTrue, rng)
}

// --- Routing (package route, §1.3 application) ---

// RouteResult summarizes a shortest-path routing workload.
type RouteResult = route.Result

// RouteRandomPairs routes uniformly random source–destination pairs
// along BFS shortest paths and reports congestion and stretch.
func RouteRandomPairs(g *Graph, pairs int, rng *RNG) RouteResult {
	return route.RandomPairs(g, pairs, rng)
}

// RoutePermutation routes a full random permutation (every vertex sends
// to a distinct random destination).
func RoutePermutation(g *Graph, rng *RNG) RouteResult {
	return route.Permutation(g, rng)
}

// --- Parameter sweeps (package sweep) ---
//
// The library exposes the core of the sweep engine: a grid spec run as a
// job into a streaming writer. Sharding, resume, merge, aggregation, the
// result cache and the serve/worker/coordinator fleet are driven through
// the faultexp command and its HTTP API (see README.md).

// SweepSpec is a declarative parameter grid: graph families × measures
// × fault models × fault rates, with per-cell trials. Cell seeds are
// hash-split from the grid seed, so results are byte-identical for any
// worker count or shard split. The legacy scalar Model field is still
// accepted and folded into Models by Validate.
type SweepSpec = sweep.Spec

// SweepFamily names one graph family entry of a sweep grid.
type SweepFamily = sweep.FamilySpec

// SweepWriter consumes streamed sweep results.
type SweepWriter = sweep.Writer

// NewSweepJSONL returns a streaming JSONL result writer.
func NewSweepJSONL(w io.Writer) SweepWriter { return sweep.NewJSONL(w) }

// SweepJob is one grid run as a first-class object: Start(ctx) launches
// it, Snapshot() observes it lock-free mid-flight, Cancel() (or
// cancelling ctx) drains the pool at a cell boundary — leaving JSONL
// output that `faultexp sweep -resume` completes to bytes identical to
// an uninterrupted run — and Wait() collects the outcome. It is the
// only way to run a grid: the execution surface behind `faultexp
// sweep`, the `faultexp serve` HTTP daemon, and library callers.
type SweepJob = sweep.Job

// SweepJobOption configures a SweepJob at construction.
type SweepJobOption = sweep.JobOption

// NewSweepJob validates the spec and options and returns a ready-to-
// Start job; the expensive work happens after Start, on the job's own
// goroutine.
func NewSweepJob(spec *SweepSpec, opts ...SweepJobOption) (*SweepJob, error) {
	return sweep.NewJob(spec, opts...)
}

// SweepJobWriter sets the job's streamed result sink.
func SweepJobWriter(w SweepWriter) SweepJobOption { return sweep.WithWriter(w) }

// SweepJobWorkers overrides the job's worker-pool size (0 = the spec's
// Workers, then GOMAXPROCS). Worker count never affects output bytes.
func SweepJobWorkers(n int) SweepJobOption { return sweep.WithWorkers(n) }

// --- Embedding / emulation (package embed, §1.2) ---

// Embedding maps a guest graph into a host graph with routed paths.
type Embedding = embed.Embedding

// EmbedMetrics are the load/congestion/dilation of an embedding, plus
// the Leighton–Maggs–Rao slowdown estimate ℓ+c+d.
type EmbedMetrics = embed.Metrics

// Emulate embeds the ideal graph into a surviving component of its
// faulty self (nearest-alive node remap + BFS routing), the §1.2
// fault-free-on-faulty emulation pipeline.
func Emulate(ideal *Graph, survivor *Sub) (*Embedding, error) {
	return embed.EmulateFaultyMesh(ideal, survivor)
}
