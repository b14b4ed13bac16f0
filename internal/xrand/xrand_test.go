package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split()
	s2 := r.Split()
	// The two split streams and the parent stream must all differ.
	for i := 0; i < 100; i++ {
		a, b, c := r.Uint64(), s1.Uint64(), s2.Uint64()
		if a == b || b == c || a == c {
			t.Fatalf("split streams collided at step %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(23)
	for _, c := range []struct{ n, k int }{{10, 0}, {10, 10}, {100, 5}, {1000, 50}, {8, 7}} {
		s := r.SampleK(c.n, c.k)
		if len(s) != c.k {
			t.Fatalf("SampleK(%d,%d) returned %d elements", c.n, c.k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= c.n || seen[v] {
				t.Fatalf("SampleK(%d,%d) = %v invalid", c.n, c.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleKCoversUniformly(t *testing.T) {
	r := New(29)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(n, k) {
			counts[v]++
		}
	}
	want := float64(trials*k) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ≈%f", i, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(41)
	const p, trials = 0.2, 50000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / trials
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean %v, want %v", p, mean, want)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(43)
	const trials = 50000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v", variance)
	}
}

// Property: Intn is always within bounds for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		r := New(seed)
		for i := 0; i < 10; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// TestSeedAtIndependence: indexed sub-seeds must be distinct across
// indices and roots, independent of other indices in use, and their
// streams must not correlate with the root's own stream.
func TestSeedAtIndependence(t *testing.T) {
	type key struct {
		root, i uint64
	}
	seen := map[uint64]key{}
	for _, root := range []uint64{0, 1, 42, ^uint64(0)} {
		for i := uint64(0); i < 64; i++ {
			s := SeedAt(root, i)
			if s2 := SeedAt(root, i); s2 != s {
				t.Fatalf("SeedAt(%d,%d) not deterministic", root, i)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("SeedAt collision: (%d,%d) vs (%d,%d)", root, i, prev.root, prev.i)
			}
			seen[s] = key{root, i}
		}
	}
	// Streams from adjacent indices must look unrelated.
	r1, r2 := New(SeedAt(7, 0)), New(SeedAt(7, 1))
	same := 0
	for i := 0; i < 16; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent SeedAt streams share %d of 16 outputs", same)
	}
}

// TestReseedMatchesNew: an in-place Reseed must reproduce New exactly,
// and must not allocate.
func TestReseedMatchesNew(t *testing.T) {
	var r RNG
	r.Reseed(12345)
	fresh := New(12345)
	for i := 0; i < 8; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("Reseed stream diverges at %d: %x vs %x", i, a, b)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Reseed(99)
		_ = r.Uint64()
		_ = SeedAt(3, 4)
	})
	if allocs != 0 {
		t.Errorf("Reseed/SeedAt hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestBernoulliMatchesFloatRule pins NewBernoulli(p).Next and Bool to
// the float rule they replaced, written out here as the reference: no
// draw for p ≤ 0 (false) or p ≥ 1 (true), else Float64() < p, one draw,
// which for a NaN p reads false. For every p in a boundary list and 1000
// random ones it checks the threshold itself: x = t−1 reads true and
// x = t false, both under the float rule and through Next on a generator
// steered to draw them. Then Next and Bool must give the reference's
// values over 10^4 draws from one seed and leave the generator in the
// same state.
func TestBernoulliMatchesFloatRule(t *testing.T) {
	reference := func(r *RNG, p float64) bool {
		if p <= 0 {
			return false
		}
		if p >= 1 {
			return true
		}
		return r.Float64() < p
	}
	const two53 = 1 << 53
	tiny := math.Ldexp(1, -53)
	ps := []float64{
		-1, math.Copysign(0, -1), 0, 5e-324,
		math.Nextafter(tiny, 0), tiny, math.Nextafter(tiny, 1),
		0.02, 0.05, 0.4, 1.0 / 3, 0.5, math.Nextafter(1, 0),
		1, 2, math.Inf(1), math.NaN(),
	}
	pr := New(26)
	for i := 0; i < 1000; i++ {
		p := pr.Float64()
		if i%2 == 1 {
			p = math.Ldexp(p, -pr.Intn(64))
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		b := NewBernoulli(p)
		switch {
		case math.IsNaN(p):
			if !b.draw || b.t != 0 {
				t.Fatalf("p=NaN: draw %v, threshold %d; want a draw that never reads true", b.draw, b.t)
			}
		case b.draw:
			if b.t < 1 || b.t > two53 {
				t.Fatalf("p=%v: threshold %d outside [1, 2^53]", p, b.t)
			}
			// Put the generator one step before a draw of x = t−1 and
			// of x = t (low bits arbitrary): Next must read the first
			// true and the second false, as the float rule does.
			for _, x := range []uint64{b.t - 1, b.t} {
				if x >= two53 {
					continue
				}
				want := x == b.t-1
				if float64(x)/two53 < p != want {
					t.Fatalf("p=%v: the float rule reads x=%d as %v; threshold %d", p, x, !want, b.t)
				}
				r := &RNG{state: unmix64(x<<11|0x5a5) - gamma}
				if got := b.Next(r); got != want {
					t.Fatalf("p=%v: Next on x=%d = %v, want %v (threshold %d)", p, x, got, want, b.t)
				}
			}
		}
		for _, draw := range []func(*RNG) bool{b.Next, func(r *RNG) bool { return r.Bool(p) }} {
			got, want := New(99), New(99)
			for i := 0; i < 10000; i++ {
				if g, w := draw(got), reference(want, p); g != w {
					t.Fatalf("p=%v draw %d: %v, float rule %v", p, i, g, w)
				}
			}
			if got.state != want.state {
				t.Fatalf("p=%v: generator state %#x after 10^4 draws, float rule leaves %#x", p, got.state, want.state)
			}
		}
	}
}

// unmix64 inverts mix64, so that a test can choose the next Uint64: a
// generator with state unmix64(z) − gamma draws z.
func unmix64(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for k := s; k < 64; k += s {
			x ^= y >> k
		}
		return x
	}
	inverse := func(m uint64) uint64 {
		inv := m // correct to 3 bits for odd m; each Newton step doubles them
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	z = unshift(z, 31) * inverse(mixM2)
	z = unshift(z, 27) * inverse(mixM1)
	return unshift(z, 30)
}

func TestUnmix64InvertsMix64(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		z := r.Uint64()
		if got := mix64(unmix64(z)); got != z {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", z, got)
		}
	}
}
