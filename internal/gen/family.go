package gen

// This file is the declarative entry point to the generator zoo: a
// first-class registry of graph families, each named by a string plus a
// size token ("16x16", "8", "256x4") — the format shared by the CLI
// flags and the sweep grid specs. Keeping the registry here (rather
// than in cmd/faultexp) lets every layer — CLI, sweep engine, tests —
// build identical graphs from the same spec, and mirrors the measure
// (sweep.Register) and fault-model (faults.ModelByName) registries: a
// family added here with register reaches every grid axis.
//
// Every registry entry is a plan: parse the size token and k once,
// check the estimated vertex and edge counts against a budget (no
// allocation proportional to the graph), and return a build closure
// over the parsed values. One plan gives three things: budget-
// parametrized builds (exact sweeps keep the OOM guard, sampled-
// precision sweeps get the raised caps), dry-run memory estimates
// without building, and cap errors that know which tier the caller is
// on.

import (
	"fmt"
	"strconv"
	"strings"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Budget caps for declaratively-built graphs. A typo'd size token
// ("100000x100000") must fail with a clear error instead of OOM-ing the
// process mid-grid; families estimate their vertex and edge counts
// before building and reject anything over the caller's budget.
const (
	// MaxVertices caps the vertex count of any family built through the
	// registry (and the product of any ParseDimsBudget size token) at the
	// default, exact-precision tier. It is the cap graph.Read enforces.
	MaxVertices = graph.MaxVertices
	// MaxEdges caps the (estimated) undirected edge count at the
	// default tier.
	MaxEdges = 1 << 27

	// MaxVerticesSampled and MaxEdgesSampled are the raised caps of the
	// sampled-precision tier ("precision": "sampled:k" in a sweep
	// spec), whose kernels run in O(k·(n+m)) instead of O(n·m) and can
	// afford million-vertex graphs. The edge cap keeps the CSR
	// adjacency length 2m within int32.
	MaxVerticesSampled = 1 << 27
	MaxEdgesSampled    = 1 << 29
)

// Budget is a (vertex, edge) cap pair for family construction.
// Comparable, so error messages can name the constant a caller's
// budget corresponds to.
type Budget struct {
	MaxV int64
	MaxE int64
}

var (
	// DefaultBudget is the exact-precision tier's OOM guard.
	DefaultBudget = Budget{MaxVertices, MaxEdges}
	// SampledBudget is the sampled-precision tier's raised ceiling.
	SampledBudget = Budget{MaxVerticesSampled, MaxEdgesSampled}
	// estimateBudget is the permissive bound EstimateFamily plans
	// under, so a dry run can REPORT the size of an over-cap spec
	// instead of failing where the real build would.
	estimateBudget = Budget{1 << 40, 1 << 40}
)

// capNote names the constants a budget's caps correspond to, plus a
// hint toward the tier above (if any) — satellites of the cap errors
// below.
func (b Budget) capNote() (vName, eName, hint string) {
	switch b {
	case DefaultBudget:
		return "gen.MaxVertices", "gen.MaxEdges",
			`; sampled-precision sweeps ("precision": "sampled:k") raise the cap to ` +
				strconv.FormatInt(MaxVerticesSampled, 10) + " vertices / " +
				strconv.FormatInt(MaxEdgesSampled, 10) + " edges"
	case SampledBudget:
		return "gen.MaxVerticesSampled", "gen.MaxEdgesSampled", ""
	default:
		return "budget", "budget", ""
	}
}

// Family is one entry of the graph-family registry: a named,
// deterministic, seeded constructor plus enough metadata to document
// itself (CLI help, the README families table) and to validate spec
// tokens without building anything.
type Family interface {
	// Name is the canonical registry key ("mesh", "gnp", …).
	Name() string
	// SizeSyntax documents the family's size token, e.g. "L1xL2[x…]"
	// for lattices, "D" for exponent-sized networks, "NxD" for
	// random-graph families.
	SizeSyntax() string
	// KUse documents the family's use of the optional k parameter
	// (the ":k" suffix of a family token). Empty means the family takes
	// no k, and spec parsing rejects tokens that carry one.
	KUse() string
	// Doc is a one-line description for CLI help and the README table.
	Doc() string
	// Build constructs the family's graph for the given size token and
	// k parameter under the default budget. Randomized families draw
	// all randomness from rng (same rng state ⇒ byte-identical graph);
	// deterministic families ignore it. The returned dims are the
	// parsed lattice dimensions (nil for non-lattice families).
	Build(size string, k int, rng *xrand.RNG) (*graph.Graph, []int, error)
}

// buildFunc builds a planned graph, drawing from rng if the family is
// randomized. The returned dims are the parsed lattice dimensions (nil
// for non-lattice families).
type buildFunc func(rng *xrand.RNG) (*graph.Graph, []int, error)

// familyDef is the one implementation of Family: metadata plus a plan.
type familyDef struct {
	name, sizeSyntax, kUse, doc string

	// plan parses size and k once, rejects anything over budget b, and
	// returns the estimated vertex and edge counts with a build closure
	// over the parsed values. It must not allocate proportionally to
	// the graph.
	plan func(size string, k int, b Budget) (n, m int64, build buildFunc, err error)
}

func (f *familyDef) Name() string       { return f.name }
func (f *familyDef) SizeSyntax() string { return f.sizeSyntax }
func (f *familyDef) KUse() string       { return f.kUse }
func (f *familyDef) Doc() string        { return f.doc }
func (f *familyDef) Build(size string, k int, rng *xrand.RNG) (*graph.Graph, []int, error) {
	return FromFamily(f.name, size, k, rng)
}

var (
	familyOrder []Family
	familyIndex = map[string]*familyDef{}
)

// register adds a family to the registry; a duplicate name panics (a
// wiring bug, mirroring sweep.Register).
func register(f *familyDef) {
	if _, dup := familyIndex[f.name]; dup {
		panic("gen: duplicate family " + f.name)
	}
	familyIndex[f.name] = f
	familyOrder = append(familyOrder, f)
}

// FamilyByName resolves a registered family name; an unknown name gives
// a nil Family.
func FamilyByName(name string) (Family, bool) {
	if f, ok := familyIndex[name]; ok {
		return f, true
	}
	return nil, false
}

// Families returns the registered families in registration (canonical
// documentation) order. The returned slice must not be modified.
func Families() []Family { return familyOrder }

// FamilyNames lists the registered family names in canonical order.
func FamilyNames() []string {
	out := make([]string, len(familyOrder))
	for i, f := range familyOrder {
		out[i] = f.Name()
	}
	return out
}

// ParseDimsBudget parses a size token such as "16x16" or "4x4x4" into
// its dimension list under the vertex cap of b, so sampled-precision
// builds can parse sizes the exact tier refuses. Components must be
// positive integers, and the product of all components must not exceed
// the cap — a typo'd "100000x100000" fails here with a clear error
// instead of an OOM.
func ParseDimsBudget(s string, b Budget) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("need -size")
	}
	vName, _, hint := b.capNote()
	parts := strings.Split(strings.ToLower(s), "x")
	dims := make([]int, len(parts))
	total := int64(1)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size component %q", p)
		}
		if int64(v) > b.MaxV {
			return nil, fmt.Errorf("size component %d exceeds the cap (%s = %d)%s", v, vName, b.MaxV, hint)
		}
		// total ≤ b.MaxV before the multiply and v ≤ b.MaxV ≤ 2^40,
		// so the int64 product cannot overflow.
		total *= int64(v)
		if total > b.MaxV {
			return nil, fmt.Errorf("size %q asks for %d+ vertices (cap %s = %d)%s", s, total, vName, b.MaxV, hint)
		}
		dims[i] = v
	}
	return dims, nil
}

// budgeted ends every plan: it rejects estimated vertex or edge counts
// over b's caps, naming the cap constant and — on the default tier —
// pointing at the sampled-precision route, and otherwise returns them
// with build.
func budgeted(family, size string, n, m int64, b Budget, build buildFunc) (int64, int64, buildFunc, error) {
	vName, eName, hint := b.capNote()
	if n > b.MaxV {
		return 0, 0, nil, fmt.Errorf("family %q size %q needs %d vertices (cap %s = %d)%s", family, size, n, vName, b.MaxV, hint)
	}
	if m > b.MaxE {
		return 0, 0, nil, fmt.Errorf("family %q size %q needs ~%d edges (cap %s = %d)%s", family, size, m, eName, b.MaxE, hint)
	}
	return n, m, build, nil
}

// parseSingle parses the size token of a family that takes one integer,
// rejecting multi-component tokens outright: building Hypercube(0) from
// a typo'd "6x2" spec would stream plausible-looking n=1 results
// instead of failing.
func parseSingle(family, size string, min int, b Budget) (int, error) {
	dims, err := ParseDimsBudget(size, b)
	if err != nil {
		return 0, err
	}
	if len(dims) != 1 {
		return 0, fmt.Errorf("family %q needs a single integer -size, got %q", family, size)
	}
	if dims[0] < min {
		return 0, fmt.Errorf("family %q needs -size ≥ %d, got %d", family, min, dims[0])
	}
	return dims[0], nil
}

// parsePair parses the "NxD" size token shared by the random-graph
// families (vertices x degree).
func parsePair(family, size string, b Budget) (n, d int, err error) {
	dims, derr := ParseDimsBudget(size, b)
	if derr != nil || len(dims) != 2 {
		return 0, 0, fmt.Errorf("%s needs -size NxD (vertices x degree)", family)
	}
	return dims[0], dims[1], nil
}

// latticeFamily builds a mesh-style family whose size token is a full
// dimension list.
func latticeFamily(name, doc string, build func(dims ...int) *graph.Graph) *familyDef {
	return &familyDef{
		name: name, sizeSyntax: "L1xL2[x…]", doc: doc,
		plan: func(size string, _ int, b Budget) (int64, int64, buildFunc, error) {
			dims, err := ParseDimsBudget(size, b)
			if err != nil {
				return 0, 0, nil, err
			}
			// ≤ len(dims) edges per vertex in a lattice.
			n := prodDims(dims)
			return budgeted(name, size, n, n*int64(len(dims)), b, func(*xrand.RNG) (*graph.Graph, []int, error) {
				return build(dims...), dims, nil
			})
		},
	}
}

func prodDims(dims []int) int64 {
	p := int64(1)
	for _, d := range dims {
		p *= int64(d)
	}
	return p
}

// oneIntFamily builds a family whose size token is a single integer.
// est maps the parsed size to estimated (vertices, edges) for the
// budget check; sizes where the estimate itself would overflow must be
// caught inside est by returning saturated values.
func oneIntFamily(name, sizeSyntax, doc string, min int, est func(v int) (n, m int64), build func(v int) *graph.Graph) *familyDef {
	return &familyDef{
		name: name, sizeSyntax: sizeSyntax, doc: doc,
		plan: func(size string, _ int, b Budget) (int64, int64, buildFunc, error) {
			v, err := parseSingle(name, size, min, b)
			if err != nil {
				return 0, 0, nil, err
			}
			n, m := est(v)
			return budgeted(name, size, n, m, b, func(*xrand.RNG) (*graph.Graph, []int, error) {
				return build(v), nil, nil
			})
		},
	}
}

// saturating returns a budget estimator that reports 2^62 vertices and
// edges, over every budget, for sizes above limit, where nm's int64
// arithmetic could overflow.
func saturating(limit int, nm func(v int) (int64, int64)) func(int) (int64, int64) {
	return func(v int) (int64, int64) {
		if v > limit {
			return 1 << 62, 1 << 62
		}
		return nm(v)
	}
}

// maxSquarable is ⌊√(2^63−1)⌋, the largest size whose square fits in
// an int64.
const maxSquarable = 3037000499

// expanderEst estimates GabberGalil(v), at most 8-regular on v²
// vertices, for the expander family and the chain family's base; 4v² =
// (2v)² fits while 2v ≤ maxSquarable.
var expanderEst = saturating(maxSquarable/2, func(v int) (int64, int64) { n := int64(v) * int64(v); return n, 4 * n })

func init() {
	// The 14 seed families, in the order they have always been
	// documented in the CLI help.
	register(latticeFamily("mesh", "d-dimensional mesh with the given side lengths", Mesh))
	register(latticeFamily("torus", "d-dimensional torus (mesh with wraparound edges)", Torus))
	register(oneIntFamily("hypercube", "D", "D-dimensional hypercube on 2^D vertices", 1,
		saturating(32, func(d int) (int64, int64) { return 1 << d, int64(d) << uint(d-1) }), Hypercube))
	register(oneIntFamily("butterfly", "D", "unwrapped D-dimensional butterfly on (D+1)·2^D vertices", 1,
		saturating(32, func(d int) (int64, int64) { return int64(d+1) << uint(d), int64(d) << uint(d+1) }), Butterfly))
	register(oneIntFamily("wbutterfly", "D", "wrapped butterfly on D·2^D vertices (4-regular)", 1,
		saturating(32, func(d int) (int64, int64) { return int64(d) << uint(d), int64(d) << uint(d+1) }), WrappedButterfly))
	register(oneIntFamily("ccc", "D", "cube-connected cycles on D·2^D vertices (degree 3)", 3,
		saturating(32, func(d int) (int64, int64) { n := int64(d) << uint(d); return n, 3 * n / 2 }), CCC))
	register(oneIntFamily("debruijn", "D", "binary de Bruijn graph on 2^D vertices", 1,
		saturating(32, func(d int) (int64, int64) { return 1 << d, 1 << uint(d+1) }), DeBruijn))
	register(oneIntFamily("shuffle", "D", "binary shuffle-exchange network on 2^D vertices", 1,
		saturating(32, func(d int) (int64, int64) { return 1 << d, 1 << uint(d+1) }), ShuffleExchange))
	register(oneIntFamily("expander", "M", "Margulis–Gabber–Galil expander on M² vertices (8-regular)", 2,
		expanderEst, GabberGalil))
	register(oneIntFamily("complete", "N", "complete graph K_N", 1,
		saturating(maxSquarable, func(v int) (int64, int64) { n := int64(v); return n, n * (n - 1) / 2 }), Complete))
	register(oneIntFamily("cycle", "N", "N-cycle", 1,
		func(v int) (int64, int64) { return int64(v), int64(v) }, Cycle))
	register(oneIntFamily("path", "N", "path graph on N vertices", 1,
		func(v int) (int64, int64) { return int64(v), int64(v) }, Path))
	register(&familyDef{
		name: "rr", sizeSyntax: "NxD",
		doc: "connected random D-regular graph on N vertices",
		plan: func(size string, _ int, b Budget) (int64, int64, buildFunc, error) {
			n, d, err := parsePair("rr", size, b)
			if err != nil {
				return 0, 0, nil, err
			}
			// ConnectedRandomRegular retries until connected, so degrees
			// that are almost surely disconnected (d ≤ 1 on n > 2) or
			// infeasible would loop forever — reject them here.
			if d >= n || (d == 1 && n != 2) || n*d%2 != 0 {
				return 0, 0, nil, fmt.Errorf("rr size %q infeasible: need 2 ≤ D < N with N·D even", size)
			}
			return budgeted("rr", size, int64(n), int64(n)*int64(d)/2, b, func(rng *xrand.RNG) (*graph.Graph, []int, error) {
				return ConnectedRandomRegular(n, d, rng), nil, nil
			})
		},
	})
	register(&familyDef{
		name: "chain", sizeSyntax: "M",
		kUse: "chain length: internal vertices replacing each base-expander edge",
		doc:  "Theorem 2.3 chain construction over an expander base of side M",
		plan: func(size string, k int, b Budget) (int64, int64, buildFunc, error) {
			v, err := parseSingle("chain", size, 2, b)
			if err != nil {
				return 0, 0, nil, err
			}
			if k < 1 {
				return 0, 0, nil, fmt.Errorf("chain needs k ≥ 1, got %d", k)
			}
			n0, m0 := expanderEst(v)
			// Check the base and the k multiplier separately so the
			// m0·k product can never overflow int64 before the cap test.
			if _, _, _, err := budgeted("chain", size, n0, m0, b, nil); err != nil {
				return 0, 0, nil, err
			}
			if int64(k) > b.MaxE/m0 {
				return 0, 0, nil, fmt.Errorf("family %q size %q with k=%d needs more than %d chain edges (cap %d)",
					"chain", size, k, b.MaxE, b.MaxE)
			}
			return budgeted("chain", size, n0+m0*int64(k), m0*int64(k+1), b, func(*xrand.RNG) (*graph.Graph, []int, error) {
				return ChainReplace(GabberGalil(v), k).G, nil, nil
			})
		},
	})

	// Randomized families motivated by the related work (PAPERS.md):
	// Erdős–Rényi graphs, Watts–Strogatz small worlds (Demichev et al.),
	// and shortcut-augmented lattices (Hayashi & Matsukubo).
	register(&familyDef{
		name: "gnp", sizeSyntax: "NxD",
		doc: "Erdős–Rényi G(n,p) on N vertices at expected degree D (p = D/(N−1))",
		plan: func(size string, _ int, b Budget) (int64, int64, buildFunc, error) {
			n, d, err := parsePair("gnp", size, b)
			if err != nil {
				return 0, 0, nil, err
			}
			if n < 2 || d >= n {
				return 0, 0, nil, fmt.Errorf("gnp size %q infeasible: need N ≥ 2 and D < N", size)
			}
			return budgeted("gnp", size, int64(n), int64(n)*int64(d)/2+1, b, func(rng *xrand.RNG) (*graph.Graph, []int, error) {
				return GNP(n, float64(d)/float64(n-1), rng), nil, nil
			})
		},
	})
	register(&familyDef{
		name: "smallworld", sizeSyntax: "NxD",
		kUse: "number of randomly rewired lattice edges (Watts–Strogatz)",
		doc:  "Watts–Strogatz ring lattice C(N,D) with k edges randomly rewired",
		plan: func(size string, k int, b Budget) (int64, int64, buildFunc, error) {
			n, d, err := parsePair("smallworld", size, b)
			if err != nil {
				return 0, 0, nil, err
			}
			if n < 3 || d < 2 || d%2 != 0 || d >= n {
				return 0, 0, nil, fmt.Errorf("smallworld size %q infeasible: need N ≥ 3 and even 2 ≤ D < N", size)
			}
			m := int64(n) * int64(d) / 2
			if k < 0 || int64(k) > m {
				return 0, 0, nil, fmt.Errorf("smallworld k=%d outside [0, %d] (the lattice's edge count)", k, m)
			}
			return budgeted("smallworld", size, int64(n), m, b, func(rng *xrand.RNG) (*graph.Graph, []int, error) {
				return SmallWorld(n, d, k, rng), nil, nil
			})
		},
	})
	register(&familyDef{
		name: "shortcut", sizeSyntax: "L1xL2[x…]",
		kUse: "number of random shortcut edges added to the mesh",
		doc:  "mesh of the given side lengths plus k random shortcut edges",
		plan: func(size string, k int, b Budget) (int64, int64, buildFunc, error) {
			dims, err := ParseDimsBudget(size, b)
			if err != nil {
				return 0, 0, nil, err
			}
			if k < 0 || int64(k) > b.MaxE {
				return 0, 0, nil, fmt.Errorf("shortcut k=%d outside [0, %d]", k, b.MaxE)
			}
			n := prodDims(dims)
			return budgeted("shortcut", size, n, n*int64(len(dims))+int64(k), b, func(rng *xrand.RNG) (*graph.Graph, []int, error) {
				base := Mesh(dims...)
				// Keep rejection sampling in Shortcut fast: require at
				// least half the non-edges to stay free.
				free := n*(n-1)/2 - int64(base.M())
				if int64(k) > free/2 {
					return nil, nil, fmt.Errorf("shortcut k=%d exceeds %d placeable shortcuts on %q", k, free/2, size)
				}
				return Shortcut(base, k, rng), dims, nil
			})
		},
	})
}

// planFamily looks the named family up and plans it under b.
func planFamily(family, size string, k int, b Budget) (n, m int64, build buildFunc, err error) {
	f, ok := familyIndex[family]
	if !ok {
		return 0, 0, nil, fmt.Errorf("unknown family %q (have %s)", family, strings.Join(FamilyNames(), ", "))
	}
	return f.plan(size, k, b)
}

// FromFamily builds a graph of the named family at the given size — a
// thin wrapper over the registry, kept for the CLI and older callers.
// The size token is family-specific (each Family documents its
// SizeSyntax); k is the family parameter used by chain (chain length),
// smallworld (rewired edges), and shortcut (shortcut edges), and is
// ignored by every other family. The returned dims are the parsed
// lattice dimensions (nil for non-lattice families). Randomized
// families draw from rng; deterministic families ignore it.
func FromFamily(family, size string, k int, rng *xrand.RNG) (*graph.Graph, []int, error) {
	return FromFamilyBudget(family, size, k, DefaultBudget, rng)
}

// FromFamilyBudget is FromFamily under an explicit cap pair: the sweep
// engine passes SampledBudget for sampled-precision cells.
func FromFamilyBudget(family, size string, k int, b Budget, rng *xrand.RNG) (*graph.Graph, []int, error) {
	_, _, build, err := planFamily(family, size, k, b)
	if err != nil {
		return nil, nil, err
	}
	return build(rng)
}

// EstimateFamily returns the estimated vertex and edge counts of the
// named family at the given size/k WITHOUT building it — the dry-run
// memory column. The plan runs under a permissive internal bound so
// over-cap sizes still report their numbers (callers compare against
// DefaultBudget/SampledBudget themselves); size tokens that are
// malformed or infeasible still error.
func EstimateFamily(family, size string, k int) (n, m int64, err error) {
	n, m, _, err = planFamily(family, size, k, estimateBudget)
	return n, m, err
}

// EstimateFamilyBudget is EstimateFamily under an explicit build
// budget: the plan applies b's caps, so a malformed or over-budget
// size token fails here with the same error the real build would raise
// — without building anything. This is the sweep engine's pre-flight
// check before constructing graphs lazily mid-run: a spec-level error
// surfaces before any output is written.
func EstimateFamilyBudget(family, size string, k int, b Budget) (n, m int64, err error) {
	n, m, _, err = planFamily(family, size, k, b)
	return n, m, err
}
