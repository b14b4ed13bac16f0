package spectral

// Lanczos iteration with full reorthogonalization for the largest
// eigenpair of a symmetric operator, with optional deflation against
// known eigenvectors. Full reorthogonalization costs O(k²n) but is
// bulletproof against the "ghost eigenvalue" pathology of plain Lanczos,
// which matters here because expansion estimates feed directly into
// certified pruning bounds.

import (
	"math"
)

// The Lanczos iteration itself lives in scratch.go (lanczosScratch):
// the hot path threads caller-owned buffers through every step, and the
// allocating entry points (Fiedler, Lambda2) run the same code on a
// throwaway Scratch.

// tridiagLargestValue returns only the largest eigenvalue of the
// symmetric tridiagonal matrix, skipping eigenvector accumulation — the
// m×m rotation matrix tridiagLargestScratch accumulates dominates the
// cost of a solve, and neither the convergence checks nor
// Lambda2Scratch read the vector. dScr/eScr are caller-owned scratch
// reused across solves.
func tridiagLargestValue(diag, off []float64, dScr, eScr *[]float64) float64 {
	m := len(diag)
	if m == 0 {
		return 0
	}
	if cap(*dScr) < m {
		*dScr = make([]float64, m)
		*eScr = make([]float64, m)
	}
	d, e := (*dScr)[:m], (*eScr)[:m]
	copy(d, diag)
	for i := range e {
		e[i] = 0
	}
	copy(e, off)
	tql2(d, e, nil)
	best := d[0]
	for _, v := range d[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// tql2 diagonalizes a symmetric tridiagonal matrix in place using the QL
// algorithm with implicit shifts (EISPACK tql2 / Numerical Recipes
// tqli). d holds the diagonal, e the sub-diagonal in e[0..m-2]; on return
// d holds eigenvalues and z[j] the eigenvector of d[j]. z is the
// transpose of EISPACK's rotation matrix — each eigenvector a contiguous
// row, so every rotation sweeps two rows at stride 1 — and must start as
// the identity. A nil z skips eigenvector accumulation (the tql1
// variant): eigenvalues only.
func tql2(d, e []float64, z [][]float64) {
	m := len(d)
	if m <= 1 {
		return
	}
	// shift e up: internal convention e[i] couples d[i] and d[i+1]
	for l := 0; l < m; l++ {
		iter := 0
		for {
			// Find small subdiagonal element.
			var mIdx int
			for mIdx = l; mIdx < m-1; mIdx++ {
				dd := math.Abs(d[mIdx]) + math.Abs(d[mIdx+1])
				if math.Abs(e[mIdx]) <= 1e-15*dd {
					break
				}
			}
			if mIdx == l {
				break
			}
			if iter++; iter > 50 {
				break // fail soft: eigenvalues are near-converged anyway
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[mIdx] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := mIdx - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[mIdx] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					zi, zi1 := z[i], z[i+1][:len(z[i])]
					for k := range zi {
						f := zi1[k]
						zi1[k] = s*zi[k] + c*f
						zi[k] = c*zi[k] - s*f
					}
				}
			}
			if r == 0 && mIdx-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[mIdx] = 0
		}
	}
}
