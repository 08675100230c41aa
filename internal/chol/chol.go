// Package chol provides Cholesky-style factorizations of (semi)definite
// matrices. The paper's fast path (Theorem 4.1) consumes constraints in
// factored form Aᵢ = QᵢQᵢᵀ; when the input is given as dense PSD
// matrices, the preprocessing step the paper describes ("we can add a
// preprocessing step that factors each Aᵢ") is the pivoted Cholesky
// here. The package also builds the C^{-1/2} matrix of the Appendix A
// normalization via an eigendecomposition.
package chol

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/work"
)

// PivotedCholeskyWS computes a rank-revealing factorization A ≈ Q Qᵀ
// of a symmetric PSD matrix, with Q of size n-by-rank. Pivots are
// chosen greedily on the largest remaining diagonal; the process stops
// when the remaining diagonal mass falls below tol·Tr(A) (tol <= 0
// defaults to 1e-12). Returns an error if A has a significantly
// negative diagonal residual, which indicates the input was not PSD.
//
// The per-pivot column scratch and residual diagonal come from ws (nil
// allocates them), so batch factorization (one pivoted Cholesky per
// constraint when densifying an instance) reuses one set of buffers
// instead of allocating O(n·rank) per matrix. Only the returned factor
// is freshly allocated.
func PivotedCholeskyWS(ws *work.Workspace, a *matrix.Dense, tol float64) (q *matrix.Dense, rank int, err error) {
	if !a.IsSquare() {
		return nil, 0, fmt.Errorf("chol: matrix is %dx%d, want square", a.R, a.C)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := a.R
	diag := ws.Vec(n)
	defer ws.PutVec(diag)
	trace := 0.0
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
		trace += diag[i]
	}
	if trace == 0 {
		// The zero matrix: factor with a single zero column so callers
		// can treat Q uniformly.
		return matrix.New(n, 1), 0, nil
	}
	// cols[k] is the k-th computed factor column (length n); all columns
	// go back to the workspace once the factor matrix is assembled.
	cols := make([][]float64, 0, n)
	defer func() {
		for _, c := range cols {
			ws.PutVec(c)
		}
	}()
	perm := make([]int, 0, n)
	for k := 0; k < n; k++ {
		// Select pivot.
		p, best := -1, tol*trace
		for i := 0; i < n; i++ {
			if diag[i] > best {
				best = diag[i]
				p = i
			}
		}
		if p < 0 {
			break
		}
		piv := math.Sqrt(diag[p])
		col := ws.Vec(n)
		// Each entry of the new factor column depends only on the already
		// computed columns, so the sweep blocks over rows.
		parallel.ForBlock(n, parallel.WorkGrain(len(cols)+1), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := a.At(i, p)
				for _, c := range cols {
					s -= c[i] * c[p]
				}
				col[i] = s / piv
			}
		})
		col[p] = piv
		cols = append(cols, col)
		perm = append(perm, p)
		parallel.ForBlock(n, parallel.WorkGrain(2), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				diag[i] -= col[i] * col[i]
			}
		})
		diag[p] = 0
		// A meaningfully negative residual diagonal certifies the input
		// was not PSD: for true PSD matrices the Schur complement stays
		// (numerically) nonnegative.
		if matrix.VecMin(diag) < -1e-8*trace {
			return nil, 0, errors.New("chol: matrix is not positive semidefinite")
		}
	}
	rank = len(cols)
	if rank == 0 {
		return matrix.New(n, 1), 0, nil
	}
	q = matrix.New(n, rank)
	for k, col := range cols {
		for i := 0; i < n; i++ {
			q.Set(i, k, col[i])
		}
	}
	return q, rank, nil
}

// InvSqrtPSD returns the Moore–Penrose inverse square root A^{-1/2} of a
// symmetric PSD matrix: eigenvalues below tol·λ_max are treated as zero
// and inverted to zero. The returned rank counts the retained
// eigenvalues. This is the C^{-1/2} of the paper's Appendix A
// normalization, where C is assumed full rank on the relevant support.
func InvSqrtPSD(a *matrix.Dense, tol float64) (inv *matrix.Dense, rank int, err error) {
	dec, lmax, err := psdDecompose(a, &tol)
	if err != nil {
		return nil, 0, err
	}
	cut := tol * lmax
	rank = 0
	for _, v := range dec.Values {
		if v > cut {
			rank++
		}
	}
	inv = dec.Apply(func(x float64) float64 {
		if x <= cut {
			return 0
		}
		return 1 / math.Sqrt(x)
	})
	return inv, rank, nil
}

func psdDecompose(a *matrix.Dense, tol *float64) (*eigen.Decomposition, float64, error) {
	if *tol <= 0 {
		*tol = 1e-12
	}
	dec, err := eigen.SymEigen(a)
	if err != nil {
		return nil, 0, err
	}
	lmax := dec.Values[0]
	if lmax < 0 {
		return nil, 0, errors.New("chol: matrix is negative definite, not PSD")
	}
	if lmax == 0 {
		lmax = 1 // zero matrix: any cut works
	}
	lmin := dec.Values[len(dec.Values)-1]
	if lmin < -1e-8*lmax {
		return nil, 0, errors.New("chol: matrix is not positive semidefinite")
	}
	return dec, lmax, nil
}
