package faults

import (
	"slices"
	"strings"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func TestIIDNodesDeterministicAndPlausible(t *testing.T) {
	g := gen.Torus(16, 16)
	a := IIDNodes(g, 0.1, xrand.New(5))
	b := IIDNodes(g, 0.1, xrand.New(5))
	if a.Count() != b.Count() {
		t.Fatal("IIDNodes not deterministic under fixed seed")
	}
	// E[count] = 25.6; allow wide slack.
	if a.Count() < 5 || a.Count() > 60 {
		t.Fatalf("IID fault count %d implausible for p=0.1, n=256", a.Count())
	}
	if IIDNodes(g, 0, xrand.New(1)).Count() != 0 {
		t.Fatal("p=0 should produce no faults")
	}
	if IIDNodes(g, 1, xrand.New(1)).Count() != g.N() {
		t.Fatal("p=1 should fault every node")
	}
}

func TestExactRandomNodes(t *testing.T) {
	g := gen.Torus(8, 8)
	p := ExactRandomNodes(g, 10, xrand.New(7))
	if p.Count() != 10 {
		t.Fatalf("count = %d, want 10", p.Count())
	}
	seen := map[int]bool{}
	for _, v := range p.Nodes {
		if v < 0 || v >= g.N() || seen[v] {
			t.Fatalf("invalid fault set %v", p.Nodes)
		}
		seen[v] = true
	}
	// Over-budget request is clamped.
	if ExactRandomNodes(g, 1000, xrand.New(8)).Count() != g.N() {
		t.Fatal("over-budget should fault all nodes")
	}
}

func TestApply(t *testing.T) {
	g := gen.Path(5)
	sub := Pattern{Nodes: []int{2}}.Apply(g)
	if sub.G.N() != 4 {
		t.Fatalf("survivor size %d", sub.G.N())
	}
	if sub.G.IsConnected() {
		t.Fatal("removing the middle of a path must disconnect it")
	}
}

func TestIIDEdges(t *testing.T) {
	g := gen.Torus(8, 8)
	sub, dead := IIDEdgeModel{}.Inject(g, 0.25, graph.NewWorkspace(), xrand.New(9))
	if dead < g.M()/8 || dead > g.M()/2 {
		t.Fatalf("edge fault count %d implausible for p=0.25, m=%d", dead, g.M())
	}
	if sub.G.M() != g.M()-dead || sub.G.N() != g.N() {
		t.Fatalf("edge removal mismatch: n=%d m=%d vs n=%d m=%d-%d", sub.G.N(), sub.G.M(), g.N(), g.M(), dead)
	}
}

func TestRandomAdversary(t *testing.T) {
	g := gen.Torus(8, 8)
	p := RandomAdversary{}.Select(g, 7, xrand.New(11))
	if p.Count() != 7 {
		t.Fatalf("count %d", p.Count())
	}
}

func TestDegreeAdversaryTargetsHubs(t *testing.T) {
	g := gen.Star(10)
	p := DegreeAdversary{}.Select(g, 1, xrand.New(13))
	if p.Count() != 1 || p.Nodes[0] != 0 {
		t.Fatalf("degree adversary should kill the hub, got %v", p.Nodes)
	}
	// Killing the hub shatters the star.
	if p.Apply(g).G.GammaLargest() != 1.0/9.0 {
		t.Fatal("hub removal should leave isolated leaves")
	}
}

func TestBottleneckAdversaryDisconnectsBarbell(t *testing.T) {
	g := gen.Barbell(8)
	p := BottleneckAdversary{}.Select(g, 1, xrand.New(17))
	if p.Count() == 0 {
		t.Fatal("no faults selected")
	}
	sub := p.Apply(g)
	// One well-placed fault (a bridge endpoint) disconnects ~half.
	if sub.G.GammaLargest() > 0.6 {
		t.Fatalf("bottleneck attack left γ = %v, expected ≈0.5", sub.G.GammaLargest())
	}
}

func TestBottleneckAdversarySpendsBudget(t *testing.T) {
	g := gen.Torus(8, 8)
	p := BottleneckAdversary{}.Select(g, 12, xrand.New(19))
	if p.Count() == 0 || p.Count() > 12 {
		t.Fatalf("budget misuse: %d faults", p.Count())
	}
}

func TestChainCenterAdversaryShatters(t *testing.T) {
	base := gen.GabberGalil(5)
	cg := gen.ChainReplace(base, 6)
	adv := ChainCenterAdversary{CG: cg}
	p := adv.Select(cg.G, len(cg.Centers), xrand.New(23))
	if p.Count() != len(cg.Centers) {
		t.Fatalf("full budget should take all centers: %d vs %d", p.Count(), len(cg.Centers))
	}
	sub := p.Apply(cg.G)
	bound := cg.ExpectedShatterSize()
	for _, s := range sub.G.ComponentSizes() {
		if s > bound {
			t.Fatalf("component %d exceeds shatter bound %d", s, bound)
		}
	}
	// Fault budget is Θ(α·N): centers = m = δ·n/2, N = n + m·k.
	if p.Count() != base.M() {
		t.Fatalf("centers %d ≠ base edges %d", p.Count(), base.M())
	}
}

func TestChainCenterPartialBudget(t *testing.T) {
	base := gen.Complete(5)
	cg := gen.ChainReplace(base, 4)
	adv := ChainCenterAdversary{CG: cg}
	p := adv.Select(cg.G, 3, xrand.New(29))
	if p.Count() != 3 {
		t.Fatalf("partial budget: %d", p.Count())
	}
}

func TestSeparatorAttackShattersMesh(t *testing.T) {
	g := gen.Mesh(12, 12)
	eps := 0.25
	pat, fragSizes := SeparatorAttack(g, eps, xrand.New(31))
	limit := int(eps * float64(g.N()))
	for _, s := range fragSizes {
		if s >= limit {
			t.Fatalf("fragment of size %d ≥ εn = %d survived", s, limit)
		}
	}
	// Total faults should be well below n (Theorem 2.5: O(log(1/ε)/ε ·
	// α(n)·n); for the 12x12 mesh α≈2/12 so the budget is ≈ tens).
	if pat.Count() >= g.N()/2 {
		t.Fatalf("separator attack used %d faults on %d nodes — far too many", pat.Count(), g.N())
	}
	if pat.Count() == 0 {
		t.Fatal("attack faulted nothing")
	}
	// Faults + fragments must partition the graph.
	total := pat.Count()
	for _, s := range fragSizes {
		total += s
	}
	if total != g.N() {
		t.Fatalf("faults+fragments = %d ≠ n = %d", total, g.N())
	}
}

func TestSeparatorAttackUsesFewerFaultsOnWeakExpanders(t *testing.T) {
	// Theorem 2.5 intuition: lower-expansion graphs shatter with fewer
	// faults. The cycle (α ~ 1/n) should need far fewer faults than the
	// expander (α constant) at equal size and ε.
	n := 64
	cyc := gen.Cycle(n)
	exp := gen.GabberGalil(8) // 64 nodes
	pc, _ := SeparatorAttack(cyc, 0.25, xrand.New(37))
	pe, _ := SeparatorAttack(exp, 0.25, xrand.New(37))
	if pc.Count() >= pe.Count() {
		t.Fatalf("cycle took %d faults, expander %d — expected cycle ≪ expander",
			pc.Count(), pe.Count())
	}
}

// TestBottleneckSelectReusesScratch: a warm Select on torus:16x16 with
// budget 16 allocates little more than the pattern it returns (it ran
// the cut finder and the ball growth on fresh buffers every call, at 187
// allocations), and scratch left by Selects on other graphs does not
// change its answer.
func TestBottleneckSelectReusesScratch(t *testing.T) {
	g := gen.Torus(16, 16)
	other := []*graph.Graph{gen.Mesh(12, 12), gen.Cycle(40), gen.Hypercube(7)}
	var want []Pattern
	for seed := uint64(0); seed < 6; seed++ {
		want = append(want, BottleneckAdversary{}.Select(g, 16, xrand.New(seed)))
	}
	for seed := uint64(0); seed < 6; seed++ {
		BottleneckAdversary{}.Select(other[seed%3], 9, xrand.New(seed))
		if got := (BottleneckAdversary{}).Select(g, 16, xrand.New(seed)); !slices.Equal(got.Nodes, want[seed].Nodes) {
			t.Fatalf("seed %d: Select after a Select on another graph = %v, want %v", seed, got.Nodes, want[seed].Nodes)
		}
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of the scratch put back")
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		BottleneckAdversary{}.Select(g, 16, xrand.New(seed))
	})
	if allocs > 20 {
		t.Errorf("warm Select averages %.1f allocations, want at most 20", allocs)
	}
}

func BenchmarkSeparatorAttackMesh(b *testing.B) {
	g := gen.Mesh(16, 16)
	for i := 0; i < b.N; i++ {
		_, _ = SeparatorAttack(g, 0.25, xrand.New(uint64(i)))
	}
}

func BenchmarkBottleneckAdversary(b *testing.B) {
	g := gen.Torus(16, 16)
	for i := 0; i < b.N; i++ {
		_ = BottleneckAdversary{}.Select(g, 16, xrand.New(uint64(i)))
	}
}

func TestValidateModels(t *testing.T) {
	if err := ValidateModels([]string{ModelIIDNode, ModelIIDEdge, ModelAdversarial}); err != nil {
		t.Errorf("ValidateModels(all builtins): %v", err)
	}
	cases := map[string][]string{
		"no fault models":       nil,
		"unknown fault model":   {"meteor"},
		"duplicate fault model": {ModelIIDNode, ModelIIDNode},
	}
	for want, names := range cases {
		err := ValidateModels(names)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ValidateModels(%v) = %v, want error containing %q", names, err, want)
		}
	}
	if got := ModelNames(); len(got) != 3 || got[0] != ModelIIDNode {
		t.Errorf("ModelNames() = %v", got)
	}
}

// TestModelByNameCoversModels pins ModelByName (a hand-maintained
// switch, kept allocation-free for the sweep trial loop) to the Models
// registry: every registered model must resolve, under its own name.
func TestModelByNameCoversModels(t *testing.T) {
	for _, m := range Models() {
		got, ok := ModelByName(m.Name())
		if !ok {
			t.Errorf("ModelByName(%q) not found but Models() lists it", m.Name())
			continue
		}
		if got.Name() != m.Name() {
			t.Errorf("ModelByName(%q) resolved to %q", m.Name(), got.Name())
		}
	}
	if len(Models()) != len(ModelNames()) {
		t.Errorf("Models()/ModelNames() length mismatch")
	}
	if _, ok := ModelByName("nope"); ok {
		t.Error("ModelByName accepted an unknown name")
	}
}
