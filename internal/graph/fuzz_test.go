package graph

import (
	"slices"
	"testing"
)

// FuzzBuilderInvariants feeds arbitrary byte strings through the
// Builder → CSR pipeline and (on a derived mask) through Induce,
// asserting the structural invariants the whole library leans on:
// sorted strictly-increasing adjacency lists, edge symmetry, degree sum
// = 2·M, and no self-loops — in both the graph and its induced
// subgraphs. It also checks the component passes that skip building the
// survivor: the labeller under the mask against naiveComponents and,
// label for label through Orig, against labelling the induced subgraph;
// and the edge pass against FilterEdgesInto plus ComponentsInto on a
// drop set derived from the payload.
func FuzzBuilderInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})          // C4
	f.Add([]byte{5, 0, 0, 1, 1, 2, 2})                // self-loops + dups
	f.Add([]byte{16, 0, 1, 0, 1, 0, 1, 250, 251, 17}) // heavy duplication, mod wrap
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%32 + 1
		payload := data[1:]
		b := NewBuilder(n)
		var added [][2]int
		for i := 0; i+1 < len(payload); i += 2 {
			u, v := int(payload[i])%n, int(payload[i+1])%n
			b.AddEdge(u, v)
			added = append(added, [2]int{u, v})
		}
		g := b.Build()
		checkInvariants(t, "graph", g)
		if g.N() != n {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		for _, e := range added {
			if e[0] != e[1] && (!g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0])) {
				t.Fatalf("added edge {%d,%d} missing", e[0], e[1])
			}
		}

		// Induced subgraph: keep vertices chosen by payload parity bits.
		keep := make([]bool, n)
		kept := 0
		for v := range keep {
			bit := byte(1)
			if v/8 < len(payload) {
				bit = payload[v/8] >> (v % 8)
			}
			if bit&1 == 1 {
				keep[v] = true
				kept++
			}
		}
		sub := g.Induce(keep)
		checkInvariants(t, "induced subgraph", sub.G)
		if sub.G.N() != kept || len(sub.Orig) != kept {
			t.Fatalf("induced size %d (orig %d), want %d", sub.G.N(), len(sub.Orig), kept)
		}
		// Provenance: every subgraph edge maps to a kept parent edge,
		// and every kept parent edge survives.
		for v := 0; v < sub.G.N(); v++ {
			ov := int(sub.Orig[v])
			if !keep[ov] {
				t.Fatalf("provenance maps %d to removed vertex %d", v, ov)
			}
			for _, w := range sub.G.Neighbors(v) {
				if !g.HasEdge(ov, int(sub.Orig[w])) {
					t.Fatalf("subgraph edge {%d,%d} has no parent edge", v, w)
				}
			}
		}
		parentKept := 0
		g.ForEachEdge(func(u, v int) {
			if keep[u] && keep[v] {
				parentKept++
			}
		})
		if parentKept != sub.G.M() {
			t.Fatalf("induced M = %d, want %d kept parent edges", sub.G.M(), parentKept)
		}

		// Components without the survivor, on one workspace.
		ws := NewWorkspace()
		var gotL []int32
		for _, mask := range [][]bool{nil, keep} {
			wantL, wantS := naiveComponents(n, added, mask)
			var gotS []int
			gotL, gotS = g.ComponentsInto(ws, mask)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotS, wantS) {
				t.Fatalf("labeller under %v: labels %v sizes %v, want %v %v (naiveComponents)",
					mask, gotL, gotS, wantL, wantS)
			}
		}
		subL, _ := sub.G.Components()
		for i, v := range sub.Orig {
			if gotL[v] != subL[i] {
				t.Fatalf("masked label[%d] = %d, want %d (Induce + Components, through Orig)", v, gotL[v], subL[i])
			}
		}
		// Edge i (in ForEachEdge order) drops when bit i of the payload,
		// read from its end, is set.
		calls := 0
		drop := func(u, v int) bool {
			i := calls
			calls++
			return i/8 < len(payload) && payload[len(payload)-1-i/8]>>(i%8)&1 == 1
		}
		filtered, wantDropped := g.FilterEdgesInto(ws, drop)
		_, labelled := filtered.G.ComponentsInto(ws, nil)
		want := slices.Clone(labelled)
		calls = 0
		got, dropped := g.FilteredComponentSizesInto(ws, drop)
		if calls != g.M() {
			t.Fatalf("edge pass called drop %d times, want once per edge (%d)", calls, g.M())
		}
		if dropped != wantDropped || !slices.Equal(got, want) {
			t.Fatalf("edge pass sizes %v with %d dropped, want %v with %d (FilterEdgesInto + ComponentsInto)",
				got, dropped, want, wantDropped)
		}
	})
}

// checkInvariants asserts the CSR structural invariants on g.
func checkInvariants(t *testing.T, label string, g *Graph) {
	t.Helper()
	degSum := 0
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		degSum += len(nb)
		for i, w := range nb {
			if int(w) == v {
				t.Fatalf("%s: self-loop at %d", label, v)
			}
			if w < 0 || int(w) >= g.N() {
				t.Fatalf("%s: neighbor %d of %d out of range", label, w, v)
			}
			if i > 0 && nb[i-1] >= w {
				t.Fatalf("%s: adjacency of %d not strictly sorted: %v", label, v, nb)
			}
			if !g.HasEdge(int(w), v) {
				t.Fatalf("%s: edge {%d,%d} not symmetric", label, v, w)
			}
		}
	}
	if degSum != 2*g.M() {
		t.Fatalf("%s: degree sum %d != 2·M = %d", label, degSum, 2*g.M())
	}
}
