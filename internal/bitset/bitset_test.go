package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Count() != 0 {
		t.Fatal("new set should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestOutOfRangeContains(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("out-of-range Contains should be false")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range should panic")
		}
	}()
	New(4).Add(4)
}

// fromSlice returns a set of capacity n containing the given elements.
func fromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestSliceAndForEachOrder(t *testing.T) {
	s := fromSlice(200, []int{150, 3, 64, 3, 199})
	want := []int{3, 64, 150, 199}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := fromSlice(100, []int{1, 2, 3, 4, 5})
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d elements, want 3", count)
	}
}

func TestNextMin(t *testing.T) {
	s := fromSlice(300, []int{5, 100, 299})
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 100}, {100, 100}, {101, 299}, {299, 299},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := s.NextSet(300); got != -1 {
		t.Errorf("NextSet past end = %d, want -1", got)
	}
	if got := s.Min(); got != 5 {
		t.Errorf("Min = %d, want 5", got)
	}
	if got := New(10).Min(); got != -1 {
		t.Errorf("Min of empty = %d, want -1", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := fromSlice(128, []int{1, 2, 3, 64, 100})
	b := fromSlice(128, []int{3, 64, 99})

	a.Or(b)
	if got := a.Count(); got != 6 {
		t.Fatalf("union count = %d, want 6", got)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched capacity should panic")
		}
	}()
	New(10).Or(New(11))
}

// randomSet builds a set of capacity n from a random generator, returning
// both the set and a reference map.
func randomSet(n int, r *rand.Rand) (*Set, map[int]bool) {
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < n/2; i++ {
		x := r.Intn(n)
		s.Add(x)
		ref[x] = true
	}
	return s, ref
}

func TestRandomAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s, ref := randomSet(n, r)
		if s.Count() != len(ref) {
			t.Fatalf("trial %d: Count=%d ref=%d", trial, s.Count(), len(ref))
		}
		for x := 0; x < n; x++ {
			if s.Contains(x) != ref[x] {
				t.Fatalf("trial %d: Contains(%d) mismatch", trial, x)
			}
		}
	}
}

func BenchmarkOr(b *testing.B) {
	x, y := New(1<<16), New(1<<16)
	for i := 0; i < 1<<16; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 1<<16; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkCount(b *testing.B) {
	x := New(1 << 16)
	for i := 0; i < 1<<16; i += 2 {
		x.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func TestClearAllAndResize(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i += 7 {
		s.Add(i)
	}
	s.ClearAll()
	if s.Count() != 0 {
		t.Fatalf("ClearAll left %d elements", s.Count())
	}
	if s.Len() != 130 {
		t.Fatalf("ClearAll changed capacity to %d", s.Len())
	}
	// Shrinking reuses storage and empties the set.
	for i := 0; i < 130; i++ {
		s.Add(i)
	}
	s.Resize(65)
	if s.Len() != 65 {
		t.Fatalf("Resize(65): Len = %d", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Resize left elements: %v", s)
	}
	s.Add(64)
	// Growing within word capacity keeps working; growing beyond
	// reallocates. Either way the set comes back empty.
	s.Resize(128)
	if s.Count() != 0 {
		t.Fatal("Resize(128) not empty")
	}
	s.Resize(1000)
	if s.Len() != 1000 || s.Count() != 0 {
		t.Fatalf("Resize(1000): Len=%d count=%d", s.Len(), s.Count())
	}
	s.Add(999)
	if !s.Contains(999) {
		t.Fatal("Add after grow failed")
	}
}

func TestNextSetNextClear(t *testing.T) {
	s := New(200)
	for _, e := range []int{0, 3, 64, 127, 128, 199} {
		s.Add(e)
	}
	cases := []struct{ from, want int }{
		{-5, 0}, {0, 0}, {1, 3}, {4, 64}, {65, 127}, {128, 128}, {129, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	// NextClear walks the complement, bounded by the universe.
	if got := s.NextClear(0); got != 1 {
		t.Errorf("NextClear(0) = %d, want 1", got)
	}
	if got := s.NextClear(3); got != 4 {
		t.Errorf("NextClear(3) = %d, want 4", got)
	}
	if got := s.NextClear(127); got != 129 {
		t.Errorf("NextClear(127) = %d, want 129", got)
	}
	full := New(70)
	for i := 0; i < 70; i++ {
		full.Add(i)
	}
	if got := full.NextClear(0); got != -1 {
		t.Errorf("NextClear on full set = %d, want -1", got)
	}
	all69 := New(70)
	for i := 0; i < 69; i++ {
		all69.Add(i)
	}
	if got := all69.NextClear(0); got != 69 {
		t.Errorf("NextClear with only 69 clear = %d, want 69", got)
	}
	if got := all69.NextClear(70); got != -1 {
		t.Errorf("NextClear past universe = %d, want -1", got)
	}
}

func TestNextClearAgainstScan(t *testing.T) {
	s := New(150)
	for i := 0; i < 150; i++ {
		if i%3 == 0 || i > 120 {
			s.Add(i)
		}
	}
	for from := -1; from <= 151; from++ {
		want := -1
		for i := from; i < 150; i++ {
			if i >= 0 && !s.Contains(i) {
				want = i
				break
			}
		}
		if got := s.NextClear(from); got != want {
			t.Fatalf("NextClear(%d) = %d, want %d", from, got, want)
		}
	}
}
