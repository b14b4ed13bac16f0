// Package bitset provides a dense, fixed-capacity bitset used throughout
// the library for node subsets: boundaries Γ(U), fault masks, subset
// enumeration, and the subset dynamic programs in the exact expansion and
// span computations.
//
// The zero value of Set is not usable; construct with New. All operations
// whose receivers and operands must agree in capacity panic on mismatch,
// because silently truncating node sets would corrupt expansion
// computations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Add inserts element i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Contains reports whether element i is present.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of elements present.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ClearAll removes every element in one word-level pass — the reset the
// frontier-BFS hot path performs between levels.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Resize changes the universe size to n, reusing the word storage when
// capacity allows. The set is empty after a Resize — it is the
// "recycle this scratch bitset for a differently-sized graph" operation,
// not a truncation.
func (s *Set) Resize(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	words := (n + wordBits - 1) / wordBits
	if cap(s.words) < words {
		s.words = make([]uint64, words)
		s.n = n
		return
	}
	s.words = s.words[:words]
	s.n = n
	s.ClearAll()
}

func (s *Set) compat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// Or sets s to s ∪ t.
func (s *Set) Or(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// ForEach calls fn for every element of s in increasing order. If fn
// returns false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the smallest set element ≥ i, or -1 if none exists:
// the word-skipping iterator the frontier BFS walks sparse frontiers
// with (a per-bit scan would touch every position between hits).
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// NextClear returns the smallest UNSET position ≥ i within the
// universe, or -1 if every position from i on is set — the complement
// iterator a bottom-up BFS step uses to walk the unvisited vertices
// without materializing the complement set.
func (s *Set) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	// Invert and shift: a set bit of w now marks a clear position.
	w := ^s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		if p := i + bits.TrailingZeros64(w); p < s.n {
			return p
		}
		return -1
	}
	for wi++; wi < len(s.words); wi++ {
		if w := ^s.words[wi]; w != 0 {
			if p := wi*wordBits + bits.TrailingZeros64(w); p < s.n {
				return p
			}
			return -1
		}
	}
	return -1
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int { return s.NextSet(0) }

// String renders the set as {a, b, c} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
