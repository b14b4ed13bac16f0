package ufind

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Components() != 5 || d.Largest() != 1 {
		t.Fatalf("fresh DSU: comps=%d largest=%d", d.Components(), d.Largest())
	}
	for i := 0; i < 5; i++ {
		if d.ComponentSize(i) != 1 {
			t.Fatalf("singleton size %d", d.ComponentSize(i))
		}
	}
}

func TestUnionChain(t *testing.T) {
	d := New(6)
	if !d.Union(0, 1) || !d.Union(1, 2) || !d.Union(3, 4) {
		t.Fatal("fresh unions should merge")
	}
	if d.Union(0, 2) {
		t.Fatal("redundant union should report false")
	}
	if d.Components() != 3 {
		t.Fatalf("components = %d, want 3", d.Components())
	}
	if d.Largest() != 3 {
		t.Fatalf("largest = %d, want 3", d.Largest())
	}
	if !d.Connected(0, 2) || d.Connected(0, 3) || d.Connected(2, 5) {
		t.Fatal("connectivity wrong")
	}
	if d.ComponentSize(4) != 2 {
		t.Fatalf("ComponentSize(4) = %d, want 2", d.ComponentSize(4))
	}
}

func TestInactiveActivation(t *testing.T) {
	d := NewInactive(4)
	if d.Largest() != 0 || d.Components() != 0 {
		t.Fatal("inactive DSU should start empty")
	}
	if d.Gamma() != 0 {
		t.Fatalf("gamma of empty occupation = %v", d.Gamma())
	}
	d.Activate(1)
	d.Activate(2)
	d.Activate(1) // idempotent
	if d.Components() != 2 || d.Largest() != 1 {
		t.Fatalf("after activations: comps=%d largest=%d", d.Components(), d.Largest())
	}
	d.Union(1, 2)
	if d.Largest() != 2 || d.Components() != 1 {
		t.Fatal("union of activated nodes failed")
	}
	if got := d.Gamma(); got != 0.5 {
		t.Fatalf("Gamma = %v, want 0.5", got)
	}
	if d.Connected(1, 3) {
		t.Fatal("inactive node must not be connected")
	}
	// ActivateJoin joins the new element to its occupied neighbours only.
	d.ActivateJoin(0, []int32{1, 3})
	if d.Largest() != 3 || d.Components() != 1 || d.Active(3) {
		t.Fatalf("after ActivateJoin(0, {1, 3}): comps=%d largest=%d", d.Components(), d.Largest())
	}
}

// Reference implementation: label propagation over an explicit edge list.
func refComponents(n int, edges [][2]int) []int {
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			a, b := label[e[0]], label[e[1]]
			if a < b {
				label[e[1]] = a
				changed = true
			} else if b < a {
				label[e[0]] = b
				changed = true
			}
		}
	}
	return label
}

func TestAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(60)
		m := r.Intn(3 * n)
		edges := make([][2]int, m)
		d := New(n)
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
			d.Union(edges[i][0], edges[i][1])
		}
		ref := refComponents(n, edges)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if d.Connected(a, b) != (ref[a] == ref[b]) {
					t.Fatalf("trial %d: Connected(%d,%d) mismatch", trial, a, b)
				}
			}
		}
		if err := checkCounts(d, ref, nil); err != "" {
			t.Fatalf("trial %d: %s", trial, err)
		}
	}
}

// checkCounts compares d's Largest, Components and SumSquares with the
// components of the reference labelling over the active elements (all
// of them when active is nil), returning a description of the first
// mismatch or "".
func checkCounts(d *DSU, label []int, active []bool) string {
	sizes := map[int]int64{}
	for v, l := range label {
		if active == nil || active[v] {
			sizes[l]++
		}
	}
	var largest, sumSq int64
	for _, s := range sizes {
		largest = max(largest, s)
		sumSq += s * s
	}
	switch {
	case int64(d.Largest()) != largest:
		return fmt.Sprintf("Largest=%d want %d", d.Largest(), largest)
	case d.Components() != len(sizes):
		return fmt.Sprintf("Components=%d want %d", d.Components(), len(sizes))
	case d.SumSquares() != sumSq:
		return fmt.Sprintf("SumSquares=%d want %d", d.SumSquares(), sumSq)
	}
	return ""
}

// TestActivateJoinAgainstReference runs random site sequences through
// ActivateJoin on random multigraphs (self-loops included) and checks
// the incremental counts after every activation against label
// propagation over the edges between occupied sites. A site is now and
// then occupied again, which must only join it to neighbours occupied
// since.
func TestActivateJoinAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		edges := make([][2]int, r.Intn(3*n))
		adj := make([][]int32, n)
		for i := range edges {
			a, b := r.Intn(n), r.Intn(n)
			edges[i] = [2]int{a, b}
			adj[a] = append(adj[a], int32(b))
			if a != b {
				adj[b] = append(adj[b], int32(a))
			}
		}
		d := NewInactive(n)
		active := make([]bool, n)
		var seq []int
		for _, v := range r.Perm(n) {
			seq = append(seq, v)
			if r.Intn(5) == 0 {
				seq = append(seq, seq[r.Intn(len(seq))])
			}
		}
		for step, v := range seq {
			d.ActivateJoin(v, adj[v])
			active[v] = true
			var live [][2]int
			for _, e := range edges {
				if active[e[0]] && active[e[1]] {
					live = append(live, e)
				}
			}
			if err := checkCounts(d, refComponents(n, live), active); err != "" {
				t.Fatalf("trial %d, step %d (site %d): %s", trial, step, v, err)
			}
		}
	}
}

// Property: after any union sequence, the sum of distinct component sizes
// equals n, and Largest is the max size.
func TestQuickSizeInvariants(t *testing.T) {
	f := func(pairs []uint8) bool {
		const n = 40
		d := New(n)
		for i := 0; i+1 < len(pairs); i += 2 {
			d.Union(int(pairs[i])%n, int(pairs[i+1])%n)
		}
		total, max := 0, 0
		seen := map[int]bool{}
		for v := 0; v < n; v++ {
			r := d.Find(v)
			if !seen[r] {
				seen[r] = true
				s := d.ComponentSize(v)
				total += s
				if s > max {
					max = s
				}
			}
		}
		return total == n && max == d.Largest() && len(seen) == d.Components()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for _, p := range pairs {
			d.Union(p[0], p[1])
		}
	}
}
