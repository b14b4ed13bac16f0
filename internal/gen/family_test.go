package gen

import (
	"strings"
	"testing"

	"faultexp/internal/xrand"
)

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"16x16", []int{16, 16}, false},
		{"8", []int{8}, false},
		{"4x4x4", []int{4, 4, 4}, false},
		{"4X4", []int{4, 4}, false},
		{" 3 x 5 ", []int{3, 5}, false},
		{"", nil, true},
		{"axb", nil, true},
		{"0x4", nil, true},
		{"-1", nil, true},
	}
	for _, c := range cases {
		got, err := ParseDimsBudget(c.in, DefaultBudget)
		if c.err {
			if err == nil {
				t.Errorf("ParseDimsBudget(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDimsBudget(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseDimsBudget(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseDimsBudget(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestFromFamily(t *testing.T) {
	rng := xrand.New(1)
	cases := []struct {
		family, size string
		wantN        int
	}{
		{"mesh", "4x4", 16},
		{"torus", "3x3", 9},
		{"hypercube", "5", 32},
		{"butterfly", "3", 32},
		{"wbutterfly", "3", 24},
		{"ccc", "3", 24},
		{"debruijn", "4", 16},
		{"shuffle", "4", 16},
		{"expander", "5", 25},
		{"complete", "7", 7},
		{"cycle", "9", 9},
		{"path", "6", 6},
		{"rr", "20x3", 20},
	}
	for _, c := range cases {
		g, _, err := FromFamily(c.family, c.size, 4, rng)
		if err != nil {
			t.Errorf("FromFamily(%s, %s): %v", c.family, c.size, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("FromFamily(%s, %s): n=%d, want %d", c.family, c.size, g.N(), c.wantN)
		}
	}
	// chain: expander(4)=16 nodes, edges vary; just check it grows.
	g, _, err := FromFamily("chain", "4", 3, rng)
	if err != nil || g.N() <= 16 {
		t.Errorf("chain family wrong: %v %v", g, err)
	}
	if _, _, err := FromFamily("nosuch", "4", 1, rng); err == nil {
		t.Error("unknown family should error")
	}
	if _, _, err := FromFamily("mesh", "", 1, rng); err == nil {
		t.Error("missing size should error")
	}
	if _, _, err := FromFamily("rr", "7", 1, rng); err == nil {
		t.Error("rr with one dim should error")
	}
	// Single-integer families must reject multi-component sizes instead
	// of silently building a 1-vertex graph.
	for _, fam := range []string{"hypercube", "expander", "complete", "chain"} {
		if _, _, err := FromFamily(fam, "4x4", 2, rng); err == nil {
			t.Errorf("FromFamily(%s, 4x4) should error", fam)
		}
	}
	// New randomized families.
	for _, c := range []struct {
		family, size string
		k, wantN     int
	}{
		{"gnp", "40x4", 0, 40},
		{"smallworld", "32x4", 0, 32},
		{"smallworld", "32x4", 5, 32},
		{"shortcut", "4x4", 0, 16},
		{"shortcut", "4x4", 6, 16},
	} {
		g, _, err := FromFamily(c.family, c.size, c.k, rng)
		if err != nil {
			t.Errorf("FromFamily(%s, %s, k=%d): %v", c.family, c.size, c.k, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("FromFamily(%s, %s): n=%d, want %d", c.family, c.size, g.N(), c.wantN)
		}
	}
	// smallworld preserves the lattice's edge count; shortcut adds
	// exactly k edges on top of the base mesh.
	if g, _, _ := FromFamily("smallworld", "32x4", 5, rng); g.M() != 64 {
		t.Errorf("smallworld:32x4:5 has m=%d, want 64", g.M())
	}
	if g, _, _ := FromFamily("shortcut", "4x4", 6, rng); g.M() != 24+6 {
		t.Errorf("shortcut:4x4:6 has m=%d, want 30", g.M())
	}
}

// TestRegistryLookups pins the registry surface: every documented name
// resolves, order is canonical, metadata is populated.
func TestRegistryLookups(t *testing.T) {
	names := FamilyNames()
	if len(names) < 17 {
		t.Fatalf("%d families registered, want ≥ 17", len(names))
	}
	if names[0] != "mesh" || names[1] != "torus" {
		t.Errorf("canonical order starts %v, want mesh, torus, …", names[:2])
	}
	for _, want := range []string{"gnp", "smallworld", "shortcut"} {
		if _, ok := FamilyByName(want); !ok {
			t.Errorf("family %q not registered", want)
		}
	}
	if f, ok := FamilyByName("nosuch"); ok || f != nil {
		t.Errorf("FamilyByName(nosuch) = %v, %v; want a nil Family", f, ok)
	}
	kFamilies := map[string]bool{"chain": true, "smallworld": true, "shortcut": true}
	for _, f := range Families() {
		if f.Name() == "" || f.SizeSyntax() == "" || f.Doc() == "" {
			t.Errorf("family %q has empty metadata: syntax=%q doc=%q", f.Name(), f.SizeSyntax(), f.Doc())
		}
		if got := f.KUse() != ""; got != kFamilies[f.Name()] {
			t.Errorf("family %q KUse()=%q, want k-use=%v", f.Name(), f.KUse(), kFamilies[f.Name()])
		}
	}
}

// TestFamilyErrorPaths feeds every family a malformed size token (and
// family-specific infeasible parameters) and demands a clear error.
func TestFamilyErrorPaths(t *testing.T) {
	rng := xrand.New(1)
	bad := map[string][]string{
		"mesh":       {"", "axb", "0x4"},
		"torus":      {"", "-2x3"},
		"hypercube":  {"", "4x4", "x"},
		"butterfly":  {"", "3x3"},
		"wbutterfly": {"", "2x2"},
		"ccc":        {"", "2", "3x3"}, // ccc needs D ≥ 3
		"debruijn":   {"", "4x4"},
		"shuffle":    {"", "4x4"},
		"expander":   {"", "1", "5x5"}, // expander needs M ≥ 2
		"complete":   {"", "7x7"},
		"cycle":      {"", "9x9"},
		"path":       {"", "6x6"},
		"rr":         {"", "7", "20x3x2", "20x21", "3x1", "9x3"}, // d<n, d≥2, n·d even
		"chain":      {"", "4x4", "1"},                           // base needs M ≥ 2
		"gnp":        {"", "40", "40x40", "1x0"},                 // D < N, N ≥ 2
		"smallworld": {"", "32", "32x3", "32x32", "2x2"},         // even 2 ≤ D < N, N ≥ 3
		"shortcut":   {"", "0x4", "axb"},
	}
	for family, sizes := range bad {
		for _, size := range sizes {
			if _, _, err := FromFamily(family, size, 1, rng); err == nil {
				t.Errorf("FromFamily(%s, %q) should error", family, size)
			}
		}
	}
	// Family-parameter errors. Negative k must error cleanly, not panic
	// in the generator (the CLI -k flag accepts any int).
	if _, _, err := FromFamily("chain", "4", 0, rng); err == nil {
		t.Error("chain with k=0 should error")
	}
	if _, _, err := FromFamily("smallworld", "32x4", 65, rng); err == nil {
		t.Error("smallworld with k > m should error")
	}
	if _, _, err := FromFamily("smallworld", "32x4", -1, rng); err == nil {
		t.Error("smallworld with negative k should error")
	}
	if _, _, err := FromFamily("shortcut", "3x3", 100, rng); err == nil {
		t.Error("shortcut with k > free/2 should error")
	}
	if _, _, err := FromFamily("shortcut", "3x3", -1, rng); err == nil {
		t.Error("shortcut with negative k should error")
	}
}

// TestSizeCaps is the OOM guard: absurd size tokens must fail fast with
// an error, not allocate.
func TestSizeCaps(t *testing.T) {
	rng := xrand.New(1)
	if _, err := ParseDimsBudget("100000x100000", DefaultBudget); err == nil {
		t.Error("ParseDimsBudget(100000x100000) should exceed the vertex cap")
	}
	if _, err := ParseDimsBudget("99999999999999999999", DefaultBudget); err == nil {
		t.Error("ParseDimsBudget with an overflowing component should error")
	}
	if dims, err := ParseDimsBudget("1024x1024", DefaultBudget); err != nil || len(dims) != 2 {
		t.Errorf("ParseDimsBudget(1024x1024) = %v, %v; want accepted", dims, err)
	}
	for _, c := range []struct{ family, size string }{
		{"mesh", "100000x100000"},
		{"hypercube", "60"},
		{"hypercube", "28"}, // 2^28 vertices > MaxVertices
		{"butterfly", "40"},
		{"complete", "100000"}, // n² / 2 edges > MaxEdges
		{"expander", "8192"},   // 67M vertices
		{"chain", "4000"},      // 16M base vertices + 64M·k chain vertices
		{"rr", "16777215x9"},   // odd n·d and edge budget
		{"gnp", "16000000x20"}, // 160M expected edges
	} {
		if _, _, err := FromFamily(c.family, c.size, 1, rng); err == nil {
			t.Errorf("FromFamily(%s, %s) should exceed a budget cap", c.family, c.size)
		}
	}
	// chain's m0·k estimate must not overflow int64 past the cap check:
	// a small base with an astronomically large k has to fail cleanly.
	for _, k := range []int{10000000, 1 << 50} {
		if _, _, err := FromFamily("chain", "100", k, rng); err == nil {
			t.Errorf("FromFamily(chain, 100, k=%d) should exceed the edge cap", k)
		}
	}
}

// TestRandomizedFamilyDeterminism is the registry's reproducibility
// contract: for every randomized family, the same (size, k, seed)
// yields a byte-identical edge list, and different seeds yield
// different graphs.
// TestEstimateSaturatesHugeSizes: the estimate bound lets a one-integer
// size reach 2^40, and the families whose estimate squares it must
// report such sizes as over the bound, not wrap around to a count that
// fits (expander, complete) or divide by a wrapped zero (chain).
func TestEstimateSaturatesHugeSizes(t *testing.T) {
	for _, c := range []struct {
		family, size string
		k            int
	}{
		{"expander", "4294967296", 0},
		{"complete", "4294967296", 0},
		{"chain", "4294967296", 1},
		{"expander", "1099511627776", 0},
		{"complete", "1099511627776", 0},
		{"chain", "1099511627776", 7},
		{"hypercube", "40", 0},
	} {
		n, m, err := EstimateFamily(c.family, c.size, c.k)
		if err == nil {
			t.Errorf("EstimateFamily(%s, %s, %d) = (%d, %d), want an over-the-bound error", c.family, c.size, c.k, n, m)
		} else if !strings.Contains(err.Error(), "needs") {
			t.Errorf("EstimateFamily(%s, %s, %d): %v, want the budget error", c.family, c.size, c.k, err)
		}
	}
	// Up to the largest sizes whose counts fit in an int64, the error
	// still names the exact count, not the saturated one.
	for _, c := range []struct{ family, size, want string }{
		{"expander", "1518500249", "needs 2305843006213062001 vertices"},
		{"complete", "3037000499", "needs ~4611686013944624251 edges"},
	} {
		if _, _, err := EstimateFamily(c.family, c.size, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("EstimateFamily(%s, %s): %v, want an error that %s", c.family, c.size, err, c.want)
		}
	}
}

func TestRandomizedFamilyDeterminism(t *testing.T) {
	cases := []struct {
		family, size string
		k            int
	}{
		{"rr", "48x3", 0},
		{"gnp", "64x4", 0},
		{"smallworld", "64x4", 12},
		{"shortcut", "6x6", 10},
	}
	for _, c := range cases {
		dump := func(seed uint64) string {
			g, _, err := FromFamily(c.family, c.size, c.k, xrand.New(seed))
			if err != nil {
				t.Fatalf("FromFamily(%s, %s, k=%d): %v", c.family, c.size, c.k, err)
			}
			var b strings.Builder
			if err := g.Write(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		if dump(7) != dump(7) {
			t.Errorf("%s:%s:%d: same seed produced different graphs", c.family, c.size, c.k)
		}
		if dump(7) == dump(8) {
			t.Errorf("%s:%s:%d: different seeds produced identical graphs", c.family, c.size, c.k)
		}
	}
	// Deterministic families must ignore the RNG entirely.
	for _, fam := range []string{"mesh", "hypercube", "expander"} {
		size := map[string]string{"mesh": "4x4", "hypercube": "4", "expander": "4"}[fam]
		g1, _, _ := FromFamily(fam, size, 1, xrand.New(1))
		g2, _, _ := FromFamily(fam, size, 1, xrand.New(999))
		var b1, b2 strings.Builder
		g1.Write(&b1)
		g2.Write(&b2)
		if b1.String() != b2.String() {
			t.Errorf("deterministic family %q varied with the seed", fam)
		}
	}
}

// TestBudgetTiers pins the sampled-precision budget behavior: sizes the
// exact tier refuses build under SampledBudget, the cap errors name
// their constants and point at the sampled route, and estimates come
// back without building.
func TestBudgetTiers(t *testing.T) {
	rng := xrand.New(1)
	// 4096x4096 = 2^24 + … no: 2^24 exactly equals MaxVertices, pick
	// one over: 4097x4096 > 2^24 but well under 2^27.
	const size = "4097x4096"
	_, _, err := FromFamily("torus", size, 0, rng)
	if err == nil {
		t.Fatalf("torus %s should exceed the exact-tier cap", size)
	}
	for _, want := range []string{"gen.MaxVertices", `"precision": "sampled:k"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("exact-tier cap error %q does not mention %s", err, want)
		}
	}
	if _, _, err := FromFamilyBudget("torus", "99999x99999x99999", 0, SampledBudget, rng); err == nil {
		t.Error("sampled tier must still have a ceiling")
	} else if !strings.Contains(err.Error(), "gen.MaxVerticesSampled") {
		t.Errorf("sampled-tier cap error %q does not name gen.MaxVerticesSampled", err)
	}
	// The raised tier actually builds what the exact tier refuses
	// (kept small enough for a unit test: a path beyond no cap, but a
	// mesh estimate check suffices — building 2^24 vertices here would
	// be slow, so exercise the plan path via a modest over-exact-cap
	// ESTIMATE instead and a genuine build at a small size).
	if g, _, err := FromFamilyBudget("mesh", "8x8", 0, SampledBudget, rng); err != nil || g.N() != 64 {
		t.Fatalf("FromFamilyBudget(mesh, 8x8) = %v, %v", g, err)
	}
	n, m, err := EstimateFamily("torus", size, 0)
	if err != nil {
		t.Fatalf("EstimateFamily(torus, %s): %v", size, err)
	}
	if wantN := int64(4097) * 4096; n != wantN || m != 2*wantN {
		t.Errorf("EstimateFamily(torus, %s) = (%d, %d), want (%d, %d)", size, n, m, wantN, 2*wantN)
	}
	// Estimates of in-cap sizes agree with the built graph.
	for _, c := range []struct {
		family, size string
		k            int
	}{
		{"torus", "16x16", 0},
		{"hypercube", "6", 0},
		{"cycle", "31", 0},
		{"complete", "9", 0},
		{"ccc", "4", 0},
		{"chain", "3", 2},
	} {
		n, m, err := EstimateFamily(c.family, c.size, c.k)
		if err != nil {
			t.Fatalf("EstimateFamily(%s, %s): %v", c.family, c.size, err)
		}
		g, _, err := FromFamily(c.family, c.size, c.k, rng)
		if err != nil {
			t.Fatalf("FromFamily(%s, %s): %v", c.family, c.size, err)
		}
		if c.family == "chain" {
			// chain's base-edge estimate is an upper bound (GabberGalil
			// dedupes), so its vertex estimate is an upper bound too.
			if int64(g.N()) > n {
				t.Errorf("%s:%s estimate n=%d below built n=%d", c.family, c.size, n, g.N())
			}
		} else if int64(g.N()) != n {
			t.Errorf("%s:%s estimate n=%d, built n=%d", c.family, c.size, n, g.N())
		}
		if int64(g.M()) > m {
			t.Errorf("%s:%s estimate m=%d below built m=%d", c.family, c.size, m, g.M())
		}
	}
	// Malformed sizes still fail the estimate.
	if _, _, err := EstimateFamily("torus", "axb", 0); err == nil {
		t.Error("EstimateFamily should reject malformed sizes")
	}
	if _, _, err := EstimateFamily("nosuch", "8", 0); err == nil {
		t.Error("EstimateFamily should reject unknown families")
	}
}
