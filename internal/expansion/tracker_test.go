package expansion

import (
	"math/rand"
	"testing"

	"faultexp/internal/graph"
)

// TestTrackerMatchesReference is the oracle for Tracker: on random
// Builder graphs of 1–60 vertices, random sequences of adds, removes and
// resets leave |U|, |Γ(U)| and cut(U) equal to the from-scratch
// BoundarySize and EdgeBoundarySize on the equivalent mask after every
// step. One tracker serves every graph, so the graphs grow and shrink
// under it and state left by a larger graph shows up.
func TestTrackerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tr Tracker
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(60)
		b := graph.NewBuilder(n)
		for i, m := 0, r.Intn(3*n+1); i < m; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		inU := make([]bool, n)
		check := func(step string) {
			t.Helper()
			size := 0
			for v, in := range inU {
				if in {
					size++
				}
				if tr.Contains(v) != in {
					t.Fatalf("iter %d %s: Contains(%d) = %v, want %v", iter, step, v, !in, in)
				}
				touches := false
				for _, w := range g.Neighbors(v) {
					touches = touches || inU[w]
				}
				if tr.Touches(v) != touches {
					t.Fatalf("iter %d %s: Touches(%d) = %v, want %v", iter, step, v, !touches, touches)
				}
			}
			if got, want := tr.Size(), size; got != want {
				t.Fatalf("iter %d %s: Size = %d, want %d", iter, step, got, want)
			}
			if got, want := tr.Boundary(), BoundarySize(g, inU); got != want {
				t.Fatalf("iter %d %s: Boundary = %d, want %d", iter, step, got, want)
			}
			if got, want := tr.Cut(), EdgeBoundarySize(g, inU); got != want {
				t.Fatalf("iter %d %s: Cut = %d, want %d", iter, step, got, want)
			}
		}
		reset := func() {
			clear(inU)
			var set []int
			for _, v := range r.Perm(n)[:r.Intn(n+1)] {
				set = append(set, v)
				inU[v] = true
			}
			tr.Reset(g, set)
			check("reset")
		}
		reset()
		for step := 0; step < 4*n; step++ {
			switch v := r.Intn(n); {
			case r.Intn(40) == 0:
				reset()
			case inU[v]:
				tr.Remove(v)
				inU[v] = false
				check("remove")
			default:
				tr.Add(v)
				inU[v] = true
				check("add")
			}
		}
	}
}
