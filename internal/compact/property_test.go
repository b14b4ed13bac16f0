package compact

// Property-based tests: compactification and sampling invariants on
// random connected graphs (Lemma 3.3 under arbitrary inputs).

import (
	"testing"
	"testing/quick"

	"faultexp/internal/expansion"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func randomConnectedGraphP(n, extra int, rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// Property (Lemma 3.3): for any connected S with |S| < n/2 in any
// connected graph, K_G(S) is compact and its edge quotient does not
// exceed S's.
func TestQuickCompactifyLemma(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 6 + rng.Intn(12)
		g := randomConnectedGraphP(n, rng.Intn(2*n), rng)
		target := 1 + rng.Intn(n/2)
		set := growConnected(g, target, rng)
		if len(set) == 0 || 2*len(set) >= n {
			return true
		}
		k := CompactifyScratch(g, set, &Scratch{})
		if !IsCompact(g, k) {
			return false
		}
		qs := expansion.Evaluate(g, set).EdgeAlpha
		qk := expansion.Evaluate(g, k).EdgeAlpha
		return qk <= qs+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Random always produces compact sets (or nil) on arbitrary
// connected graphs.
func TestQuickRandomCompact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(20)
		g := randomConnectedGraphP(n, rng.Intn(n), rng)
		set := Random(g, 1+rng.Intn(n/2+1), rng)
		return set == nil || IsCompact(g, set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: enumeration visits every compact set's complement too (the
// definition is symmetric: U compact ⟺ V∖U compact).
func TestQuickEnumerationSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(6)
		g := randomConnectedGraphP(n, rng.Intn(n), rng)
		seen := map[string]bool{}
		Enumerate(g, func(set []int) bool {
			seen[keyOf(set)] = true
			return true
		})
		ok := true
		Enumerate(g, func(set []int) bool {
			inU := make([]bool, n)
			for _, v := range set {
				inU[v] = true
			}
			var comp []int
			for v := 0; v < n; v++ {
				if !inU[v] {
					comp = append(comp, v)
				}
			}
			if !seen[keyOf(comp)] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func growConnected(g *graph.Graph, target int, rng *xrand.RNG) []int {
	n := g.N()
	inU := make([]bool, n)
	start := rng.Intn(n)
	inU[start] = true
	set := []int{start}
	frontier := []int{}
	for _, w := range g.Neighbors(start) {
		frontier = append(frontier, int(w))
	}
	for len(set) < target && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if inU[v] {
			continue
		}
		inU[v] = true
		set = append(set, v)
		for _, w := range g.Neighbors(v) {
			if !inU[w] {
				frontier = append(frontier, int(w))
			}
		}
	}
	return set
}
