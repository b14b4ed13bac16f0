// Package xrand provides the deterministic pseudo-random number generator
// used by every randomized component in the library: graph generators,
// fault injection, percolation sweeps, and Monte-Carlo experiment
// harnesses.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014): tiny state,
// excellent statistical quality for simulation workloads, and — the
// property the experiment harness depends on — cheap deterministic
// *splitting*, so that parallel workers each get an independent stream
// derived from a single experiment seed. Results are therefore
// reproducible bit-for-bit given (seed, parameters) regardless of
// goroutine scheduling.
package xrand

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator.
// It is not safe for concurrent use; use Split to derive independent
// streams for concurrent workers.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

const (
	gamma  = 0x9E3779B97F4A7C15 // golden-ratio increment
	mixM1  = 0xBF58476D1CE4E5B9
	mixM2  = 0x94D049BB133111EB
	splitK = 0xD1342543DE82EF95 // distinct odd constant for stream splitting
)

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * mixM1
	z = (z ^ (z >> 27)) * mixM2
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent
// of r's. The i-th Split of a given generator state is deterministic.
func (r *RNG) Split() *RNG {
	s := r.Uint64()
	// Re-mix with a distinct constant so a split stream never collides
	// with the parent stream even for adversarial seeds.
	s = (s ^ (s >> 33)) * splitK
	return &RNG{state: s ^ gamma}
}

// Reseed resets the generator in place to the state New(seed) would
// produce, without allocating — the trial loop's way of giving each
// trial a fresh independent stream while reusing one RNG value.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix used for
// seed derivation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixM1
	z = (z ^ (z >> 27)) * mixM2
	return z ^ (z >> 31)
}

// SeedAt derives the i-th indexed sub-seed of root: the allocation-free
// numeric counterpart of SeedFor(root, "<i>") for hot loops that derive
// one seed per trial. Distinct (root, i) pairs give statistically
// independent streams, and — like SeedFor — the result depends only on
// the pair, never on scheduling or on which other indices are used, so
// extending a trial loop never perturbs earlier trials' streams.
func SeedAt(root uint64, i uint64) uint64 {
	// Two finalizer rounds with the split constant folded between them:
	// the same avalanche structure as SeedFor, with the index taking the
	// place of the hashed key.
	return mix64(mix64(root^gamma) ^ (i+1)*splitK)
}

// SeedFor derives a stream seed from a root seed and a structured key by
// hash-splitting: each key component is folded in with FNV-1a and the
// accumulated state is passed through the SplitMix64 finalizer. Two
// properties make this the right tool for parameter sweeps: the derived
// seed depends only on (root, key...) — never on scheduling, worker
// count, or the order other cells run in — and distinct keys give
// statistically independent streams. Changing one key component (adding
// a graph family, say) therefore never perturbs any other cell's stream.
func SeedFor(root uint64, key ...string) uint64 {
	const (
		fnvOffset = 0xCBF29CE484222325
		fnvPrime  = 0x00000100000001B3
	)
	h := uint64(fnvOffset)
	for _, k := range key {
		// Length-prefix each component: the folded stream
		// len₁·bytes₁·len₂·bytes₂… decodes unambiguously, so distinct
		// key vectors — ("ab","c") vs ("a","bc"), or components that
		// contain any particular byte value — never fold identically.
		h ^= uint64(len(k))
		h *= fnvPrime
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= fnvPrime
		}
	}
	return mix64(mix64(root^gamma) ^ h)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive bound")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(n, nil)
}

// PermInto is Perm writing into buf (grown only when its capacity is
// insufficient), so permutation-hungry loops can reuse one buffer. The
// draw sequence is identical to Perm's.
func (r *RNG) PermInto(n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// SampleK returns k distinct uniform elements of [0, n) in random order.
// It panics if k > n. Uses a partial Fisher-Yates over an index map so the
// cost is O(k) expected, independent of n.
func (r *RNG) SampleK(n, k int) []int {
	out, _ := r.SampleKInto(n, k, nil, nil)
	return out
}

// SampleKInto is SampleK reusing a caller-owned output buffer and index
// map (pass the returned values back in on the next call; nil starts
// fresh). After warm-up at a given size, sampling allocates nothing. The
// draw sequence is identical to SampleK's.
func (r *RNG) SampleKInto(n, k int, buf []int, seen map[int]int) ([]int, map[int]int) {
	if k > n {
		panic("xrand: SampleK k > n")
	}
	if k < 0 {
		panic("xrand: SampleK negative k")
	}
	// For dense samples a full shuffle is cheaper than map bookkeeping.
	if k*4 >= n {
		p := r.PermInto(n, buf)
		return p[:k], seen
	}
	if seen == nil {
		seen = make(map[int]int, k*2)
	} else {
		clear(seen)
	}
	if cap(buf) < k {
		buf = make([]int, k)
	}
	out := buf[:k]
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := seen[j]
		if !ok {
			vj = j
		}
		vi, ok := seen[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		seen[j] = vi
	}
	return out, seen
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). Panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return int(math.Floor(math.Log(1-r.Float64()) / math.Log1p(-p)))
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
