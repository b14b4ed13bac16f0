package spectral

import (
	"math"
	"testing"

	"faultexp/internal/xrand"
)

// denseTridiag materializes the symmetric tridiagonal matrix with
// diagonal a and off-diagonal b as a dense matrix for JacobiEigen.
func denseTridiag(a, b []float64) [][]float64 {
	m := len(a)
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, m)
		t[i][i] = a[i]
		if i > 0 {
			t[i][i-1], t[i-1][i] = b[i-1], b[i-1]
		}
	}
	return t
}

// tridiagCase is one tridiagonal test matrix.
type tridiagCase struct {
	name string
	a, b []float64
}

// tridiagCases returns random tridiagonals of several orders, shaped
// like Lanczos's (diagonal in [0, 2], off-diagonal in (0, 1)), plus the
// edge cases: orders 1 and 2, off-diagonals down to 1e-300, and two
// nearly repeated top eigenvalues.
func tridiagCases() []tridiagCase {
	rng := xrand.New(41)
	random := func(m int) ([]float64, []float64) {
		a, b := make([]float64, m), make([]float64, m-1)
		for i := range a {
			a[i] = 2 * rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64() + 1e-3
		}
		return a, b
	}
	var cs []tridiagCase
	for _, m := range []int{3, 5, 10, 40, 120, 7, 2, 64} {
		a, b := random(m)
		cs = append(cs, tridiagCase{"random", a, b})
	}
	cs = append(cs,
		tridiagCase{"m=1", []float64{0.875}, nil},
		tridiagCase{"m=1 zero", []float64{0}, nil},
		tridiagCase{"m=2", []float64{1.25, 0.5}, []float64{0.75}},
		tridiagCase{"m=2 equal diagonal", []float64{1, 1}, []float64{1e-9}},
	)
	// Off-diagonals from 1e-100 down to 1e-300: the matrix splits into
	// blocks (b² underflows below about 1e-154), and the top eigenvector
	// lives in one of them.
	a, b := random(30)
	for i, tiny := range []float64{1e-100, 1e-160, 1e-200, 1e-300} {
		b[5+6*i] = tiny
	}
	cs = append(cs, tridiagCase{"tiny off-diagonals", a, b})
	// Two copies of one block joined end to end (the second mirrored,
	// so the matrix is persymmetric) through a weak coupling: the top
	// eigenvalue splits into a pair closer than δ (here 2e-12 and 2e-13).
	for _, delta := range []float64{1e-6, 1e-11} {
		ba, bb := random(12)
		a := append(append([]float64(nil), ba...), reversed(ba)...)
		b := append(append(append([]float64(nil), bb...), delta), reversed(bb)...)
		cs = append(cs, tridiagCase{"nearly repeated", a, b})
	}
	return cs
}

func reversed(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[len(s)-1-i] = x
	}
	return out
}

// jacobiTop returns the largest eigenvalue of the tridiagonal by dense
// Jacobi, its unit eigenvector, and the next eigenvector (nil for m=1).
func jacobiTop(a, b []float64) (top float64, v, next []float64) {
	m := len(a)
	vals, vecs := JacobiEigen(denseTridiag(a, b))
	col := func(j int) []float64 {
		c := make([]float64, m)
		for r := range c {
			c[r] = vecs[r][j]
		}
		return c
	}
	if m > 1 {
		next = col(m - 2)
	}
	return vals[m-1], col(m - 1), next
}

// tnormOf is the Gershgorin bound on ‖T‖.
func tnormOf(a, b []float64) float64 {
	t := 0.0
	for i := range a {
		r := math.Abs(a[i])
		if i > 0 {
			r += math.Abs(b[i-1])
		}
		if i < len(b) {
			r += math.Abs(b[i])
		}
		t = math.Max(t, r)
	}
	return t
}

// TestTridiagTopMatchesJacobi checks the Sturm bisection against dense
// Jacobi: the largest eigenvalue agrees to rounding, whatever bracket
// hint the caller passes — none, a true lower bound with a small or a
// large rise, or a "previous Ritz value" above the answer, which must be
// refused — and sigma is a point every eigenvalue lies below, within a
// few ulps of the top.
func TestTridiagTopMatchesJacobi(t *testing.T) {
	for _, c := range tridiagCases() {
		want, _, _ := jacobiTop(c.a, c.b)
		tol := 1e-13 * math.Max(1, tnormOf(c.a, c.b))
		hints := []struct{ lo, rise float64 }{
			{math.Inf(-1), 0},
			{want - 1e-3, 1e-3},
			{want - 1e-9, 1e-14},
			{want - 0.5, 0},
			{want + 1e-6, 1e-7},
			{math.NaN(), math.NaN()},
		}
		for _, h := range hints {
			top, sigma := tridiagTop(c.a, c.b, h.lo, h.rise)
			if math.Abs(top-want) > tol {
				t.Errorf("%s (m=%d) hint %v: top = %v, Jacobi %v", c.name, len(c.a), h, top, want)
			}
			if !allBelow(c.a, c.b, sigma, pivotFloor(c.b)) || sigma < top || sigma-top > tol {
				t.Errorf("%s (m=%d) hint %v: sigma %v does not bound top %v from just above", c.name, len(c.a), h, sigma, top)
			}
		}
	}
}

// TestTridiagTopVectorMatchesJacobi checks the inverse iteration against
// dense Jacobi: the vector is a unit vector with a small residual, and
// matches Jacobi's top eigenvector up to sign, |⟨x, v⟩| ≈ 1. When the
// top pair of eigenvalues is too close for any solver to separate their
// vectors, it checks instead that x lies in the pair's invariant
// subspace.
func TestTridiagTopVectorMatchesJacobi(t *testing.T) {
	for _, c := range tridiagCases() {
		m := len(c.a)
		top, sigma := tridiagTop(c.a, c.b, math.Inf(-1), 0)
		x, d := make([]float64, m), make([]float64, m)
		tridiagTopVector(c.a, c.b, sigma, x, d)
		if nx := norm(x); math.Abs(nx-1) > 1e-12 {
			t.Errorf("%s (m=%d): ‖x‖ = %v", c.name, m, nx)
		}
		// ‖T·x − top·x‖
		res := 0.0
		for i := range x {
			r := (c.a[i] - top) * x[i]
			if i > 0 {
				r += c.b[i-1] * x[i-1]
			}
			if i < m-1 {
				r += c.b[i] * x[i+1]
			}
			res += r * r
		}
		if res = math.Sqrt(res); res > 1e-12*math.Max(1, tnormOf(c.a, c.b)) {
			t.Errorf("%s (m=%d): residual %v", c.name, m, res)
		}
		want, v, next := jacobiTop(c.a, c.b)
		gap := math.Inf(1)
		if m > 1 {
			vals, _ := JacobiEigen(denseTridiag(c.a, c.b))
			gap = want - vals[m-2]
		}
		cos := math.Abs(dot(x, v))
		if gap > 1e-9 {
			if math.Abs(cos-1) > 1e-9 {
				t.Errorf("%s (m=%d): |⟨x, v⟩| = %v, want 1 (gap %v)", c.name, m, cos, gap)
			}
			continue
		}
		if c2 := math.Abs(dot(x, next)); math.Abs(math.Hypot(cos, c2)-1) > 1e-9 {
			t.Errorf("%s (m=%d): x leaves the top pair's subspace: |⟨x, v₁⟩| = %v, |⟨x, v₂⟩| = %v", c.name, m, cos, c2)
		}
	}
}

// TestTridiagScratchReuse runs the tridiagonal kernels on one pair of
// buffers carried across orders that grow and shrink, so each solve
// starts over stale data from a larger one, and checks every result
// against fresh buffers bit for bit.
func TestTridiagScratchReuse(t *testing.T) {
	xs, ds := make([]float64, 0, 8), make([]float64, 0, 8)
	for _, c := range tridiagCases() {
		m := len(c.a)
		top, sigma := tridiagTop(c.a, c.b, math.Inf(-1), 0)
		xs, ds = growF(xs, m), growF(ds, m)
		tridiagTopVector(c.a, c.b, sigma, xs, ds)
		fresh := make([]float64, m)
		tridiagTopVector(c.a, c.b, sigma, fresh, make([]float64, m))
		for i := range fresh {
			if math.Float64bits(xs[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("%s (m=%d): reused x[%d] = %v, fresh %v", c.name, m, i, xs[i], fresh[i])
			}
		}
		if again, _ := tridiagTop(c.a, c.b, math.Inf(-1), 0); math.Float64bits(again) != math.Float64bits(top) {
			t.Fatalf("%s (m=%d): bisection is not deterministic", c.name, m)
		}
		xs, ds = xs[:0], ds[:0]
	}
}
