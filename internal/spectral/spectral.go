// Package spectral provides the eigenvalue machinery used to *estimate*
// expansion on graphs too large for exact subset enumeration: matrix-free
// normalized-Laplacian operators, a Lanczos solver for the algebraic
// connectivity λ₂ and its Fiedler vector (for spectral sweep cuts), a
// dense Jacobi eigensolver used as a test oracle, and the Cheeger
// inequalities that convert λ₂ into rigorous two-sided bounds on
// conductance and edge expansion.
//
// The Lanczos solver keeps its Krylov basis orthogonal: every step
// reorthogonalizes the new vector against the whole basis and the
// Laplacian's kernel, with a second pass only when the first cancels
// most of it. It reads the Ritz value off the small tridiagonal by
// Sturm-count bisection and the Ritz vector by inverse iteration. The
// Ritz value λ̂₂ is an upper bound on λ₂; it reaches λ₂ to working
// precision when the iteration converges, and the 4√n step budget can
// stop it short of that on large, slowly mixing graphs.
//
// Everything is implemented from scratch on float64 slices — the library
// is stdlib-only by design.
package spectral

import (
	"math"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Laplacian is a matrix-free symmetric operator for a graph's normalized
// Laplacian L = I − D^{−1/2} A D^{−1/2} (isolated vertices contribute
// identity rows).
type Laplacian struct {
	g       *graph.Graph
	invSqrt []float64 // 1/sqrt(deg), 0 for isolated vertices
}

// NewLaplacian builds the normalized Laplacian operator of g.
func NewLaplacian(g *graph.Graph) *Laplacian {
	inv := make([]float64, g.N())
	for v := range inv {
		if d := g.Degree(v); d > 0 {
			inv[v] = 1 / math.Sqrt(float64(d))
		}
	}
	return &Laplacian{g: g, invSqrt: inv}
}

// Apply computes dst = L·src.
func (l *Laplacian) Apply(dst, src []float64) {
	n := l.g.N()
	for v := 0; v < n; v++ {
		s := 0.0
		for _, w := range l.g.Neighbors(v) {
			s += src[w] * l.invSqrt[w]
		}
		dst[v] = src[v] - l.invSqrt[v]*s
	}
}

// ApplyShifted computes dst = (2I − L)·src, the positive-definite
// companion operator whose *largest* eigenvalues correspond to the
// *smallest* eigenvalues of L — the form Lanczos converges fastest on.
func (l *Laplacian) ApplyShifted(dst, src []float64) {
	n := l.g.N()
	for v := 0; v < n; v++ {
		s := 0.0
		for _, w := range l.g.Neighbors(v) {
			s += src[w] * l.invSqrt[w]
		}
		dst[v] = src[v] + l.invSqrt[v]*s
	}
}

// FiedlerResult is the outcome of an algebraic-connectivity computation.
type FiedlerResult struct {
	Lambda2 float64   // second-smallest eigenvalue of the normalized Laplacian
	Vector  []float64 // Fiedler vector in vertex coordinates (D^{-1/2}-scaled)
	Iters   int       // Lanczos iterations performed
}

// Fiedler computes λ₂ of the normalized Laplacian and its eigenvector
// using Lanczos on 2I−L with deflation against the known kernel vector.
// For a disconnected graph λ₂ = 0 (and the vector separates components).
// maxIter ≤ 0 selects an automatic budget. It is a thin wrapper over
// FiedlerScratch on a throwaway scratch, so the returned Vector is
// uniquely owned.
func Fiedler(g *graph.Graph, maxIter int, rng *xrand.RNG) FiedlerResult {
	return FiedlerScratch(g, maxIter, rng, &Scratch{})
}

// Lambda2 returns only the algebraic connectivity of the normalized
// Laplacian: Lambda2Scratch on a throwaway scratch, bit-identical to
// Fiedler(g, 0, rng).Lambda2.
func Lambda2(g *graph.Graph, rng *xrand.RNG) float64 {
	return Lambda2Scratch(g, rng, &Scratch{})
}

// Conductance computes the conductance φ(S) = cut(S) / min(vol S, vol S̄)
// of the vertex set given by mask (mask[v] true means v ∈ S). Returns
// +Inf for degenerate sides.
func Conductance(g *graph.Graph, mask []bool) float64 {
	cut, volS, volT := 0, 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if mask[v] {
			volS += d
		} else {
			volT += d
		}
	}
	g.ForEachEdge(func(u, v int) {
		if mask[u] != mask[v] {
			cut++
		}
	})
	minVol := volS
	if volT < minVol {
		minVol = volT
	}
	if minVol == 0 {
		return math.Inf(1)
	}
	return float64(cut) / float64(minVol)
}

// CheegerBounds returns the rigorous two-sided bound on the conductance
// h(G) implied by λ₂ of the normalized Laplacian:
//
//	λ₂/2 ≤ h(G) ≤ √(2·λ₂).
func CheegerBounds(lambda2 float64) (lower, upper float64) {
	return lambda2 / 2, math.Sqrt(2 * lambda2)
}

func intSqrt(n int) int {
	return int(math.Sqrt(float64(n)))
}

// ---- small vector helpers shared by the solvers ----

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	for i := range a {
		a[i] /= n
	}
}

// axpy computes y += alpha·x.
func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// reorthogonalize removes from v its components along the unit kernel
// vector and each (unit) basis vector, and returns ‖v‖² after; vv is
// ‖v‖² before. It runs one modified Gram–Schmidt (MGS) pass, and a
// second only when the first shrank ‖v‖ by more than √2: a pass that
// cancels less than that leaves v orthogonal to the vectors to working
// precision, and one that cancels more is repeated once, after which it
// is ("twice is enough", Kahan; Parlett, The Symmetric Eigenvalue
// Problem, §6.9).
func reorthogonalize(v []float64, vv float64, kernel []float64, basis [][]float64) float64 {
	after := mgsPass(v, kernel, basis)
	if 2*after < vv {
		after = mgsPass(v, kernel, basis)
	}
	return after
}

// mgsPass is one MGS pass over the kernel vector, then the basis, and
// returns ‖v‖² after it. Each projection's coefficient is the dot
// product with v as the previous projection left it, so one axpyDot
// sweep applies projection j and sums projection j+1's coefficient, and
// the last sweep sums ‖v‖²: k+2 sweeps over v for k basis vectors.
func mgsPass(v, kernel []float64, basis [][]float64) float64 {
	c, prev := dot(v, kernel), kernel
	for _, b := range basis {
		c, prev = axpyDot(-c, prev, v, b), b
	}
	return axpyDot(-c, prev, v, v)
}

// axpyDot computes y += a·x and returns the dot product of the updated
// y with z, in one sweep: bit for bit axpy(a, x, y) followed by
// dot(y, z).
func axpyDot(a float64, x, y, z []float64) float64 {
	x, z = x[:len(y)], z[:len(y)]
	s := 0.0
	for i := range y {
		y[i] += a * x[i]
		s += y[i] * z[i]
	}
	return s
}
