package xrand

import "testing"

func TestSeedForDeterministic(t *testing.T) {
	a := SeedFor(42, "torus:8x8", "gamma", "iid-node", "0.05")
	b := SeedFor(42, "torus:8x8", "gamma", "iid-node", "0.05")
	if a != b {
		t.Fatalf("SeedFor not deterministic: %x vs %x", a, b)
	}
}

func TestSeedForDistinguishesKeys(t *testing.T) {
	base := SeedFor(42, "torus:8x8", "gamma")
	variants := []uint64{
		SeedFor(43, "torus:8x8", "gamma"),     // different root
		SeedFor(42, "torus:8x9", "gamma"),     // different component
		SeedFor(42, "torus:8x8", "gamma2"),    // different component
		SeedFor(42, "torus:8x8g", "amma"),     // shifted component boundary
		SeedFor(42, "torus:8x8", "gamma", ""), // extra empty component
		SeedFor(42, "torus:8x8gamma"),         // joined components
		SeedFor(42, "torus:8x8\xff", "gamma"), // 0xFF at a boundary
		SeedFor(42, "torus:8x8", "\xffgamma"), // 0xFF moved across it
	}
	seen := map[uint64]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides with an earlier seed: %x", i, v)
		}
		seen[v] = true
	}
}

func TestSeedForStreamsLookIndependent(t *testing.T) {
	// Adjacent keys must not produce correlated streams: compare the
	// first few outputs of generators seeded from keys differing in one
	// character.
	r1 := New(SeedFor(1, "cell", "a"))
	r2 := New(SeedFor(1, "cell", "b"))
	same := 0
	for i := 0; i < 16; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from distinct keys share %d of 16 outputs", same)
	}
}
