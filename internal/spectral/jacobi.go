package spectral

// Dense cyclic Jacobi eigensolver: the test oracle for the Lanczos path.
// O(n³) per sweep, intended for n up to a few hundred — enough to verify
// λ₂ against closed forms and against the iterative solver.

import (
	"math"

	"faultexp/internal/graph"
)

// DenseNormalizedLaplacian materializes the normalized Laplacian of g as
// a dense symmetric matrix (row-major, n×n).
func DenseNormalizedLaplacian(g *graph.Graph) [][]float64 {
	n := g.N()
	l := NewLaplacian(g)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 1
		if g.Degree(i) == 0 {
			a[i][i] = 0 // isolated vertex: zero row keeps spectrum in [0,2]
		}
	}
	g.ForEachEdge(func(u, v int) {
		w := -l.invSqrt[u] * l.invSqrt[v]
		a[u][v] = w
		a[v][u] = w
	})
	return a
}

// JacobiEigen computes all eigenvalues of the dense symmetric matrix a
// (destroyed in the process) by cyclic Jacobi rotations, returned in
// ascending order. Also returns the matching eigenvectors as columns of
// the second return value (vectors[i][j] = component i of eigenvector j).
func JacobiEigen(a [][]float64) ([]float64, [][]float64) {
	return jacobi(a, true)
}

// jacobi is JacobiEigen. Without vectors it skips the rotations of the
// eigenvector matrix, which never feed back into a, so it returns the
// same eigenvalues bit for bit, and nil vectors, in about half the
// arithmetic.
func jacobi(a [][]float64, vectors bool) ([]float64, [][]float64) {
	n := len(a)
	var v [][]float64
	if vectors {
		v = make([][]float64, n)
		for i := range v {
			v[i] = make([]float64, n)
			v[i][i] = 1
		}
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-15 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				app, aqq, apq := a[p][p], a[q][q], a[p][q]
				a[p][p] = app - t*apq
				a[q][q] = aqq + t*apq
				a[p][q] = 0
				a[q][p] = 0
				for k := 0; k < n; k++ {
					if k != p && k != q {
						akp, akq := a[k][p], a[k][q]
						a[k][p] = c*akp - s*akq
						a[p][k] = a[k][p]
						a[k][q] = s*akp + c*akq
						a[q][k] = a[k][q]
					}
				}
				for _, row := range v {
					vkp, vkq := row[p], row[q]
					row[p] = c*vkp - s*vkq
					row[q] = s*vkp + c*vkq
				}
			}
		}
	}
	// Sort eigenvalues (and columns) ascending.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a[i][i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	var sortedVecs [][]float64
	for range v {
		sortedVecs = append(sortedVecs, make([]float64, n))
	}
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := range sortedVecs {
			sortedVecs[r][newCol] = v[r][oldCol]
		}
	}
	return sortedVals, sortedVecs
}

// ExactLambda2 computes λ₂ of the normalized Laplacian by dense Jacobi —
// a slow but exact reference for tests and small-graph certification.
func ExactLambda2(g *graph.Graph) float64 {
	if g.N() < 2 {
		return 0
	}
	vals, _ := jacobi(DenseNormalizedLaplacian(g), false)
	return vals[1]
}

// ExactSpectrum returns all normalized-Laplacian eigenvalues ascending.
func ExactSpectrum(g *graph.Graph) []float64 {
	vals, _ := jacobi(DenseNormalizedLaplacian(g), false)
	return vals
}
