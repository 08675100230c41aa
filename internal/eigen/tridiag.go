// Package eigen implements a symmetric eigensolver from scratch:
// Householder reduction to tridiagonal form followed by the implicit-
// shift QL algorithm, plus Lanczos and power iteration for extremal
// eigenvalues of implicitly represented operators.
//
// The solver substrate needs eigendecompositions for three jobs in the
// paper's pipeline: exact matrix exponentials exp(Ψ) on the dense path,
// the C^{-1/2} normalization of Appendix A, and λ_max certificate
// verification of dual solutions (Σ xᵢAᵢ ≼ I).
package eigen

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when the QL iteration exceeds its
// iteration budget, which for float64 symmetric input essentially never
// happens.
var ErrNoConvergence = errors.New("eigen: QL iteration failed to converge")

// tred2 reduces the symmetric matrix stored row-major in a (n-by-n) to
// tridiagonal form by Householder similarity transformations.
// On return d holds the diagonal and e the subdiagonal (e[0] is spare).
// When w is non-nil (length n, contents ignored) a is overwritten with
// the transpose of the orthogonal matrix Z effecting the reduction: row
// j of a is the j-th basis image. Otherwise a is left holding
// Householder debris. Classic EISPACK/NR scheme, zero-indexed.
//
// The back-accumulation builds Zᵀ in place, row by row, from the
// Householder vectors left in a: step i reads u = a[i][:i] and u/h =
// a[:i][i] (copied into w so the update streams it), which no earlier
// step touches, and updates the leading i-by-i block, which holds Zᵀ
// of the steps before. Every g_j is the dot of row j with u, summed in
// ascending k, and each entry takes its single rank-1 update from the
// same operands as the classical column loop, so the result is that
// loop's Z transposed bit for bit; only the memory order changes.
func tred2(a []float64, n int, d, e, w []float64) {
	accumulate := w != nil
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i*n+k])
			}
			if scale == 0 {
				e[i] = a[i*n+l]
			} else {
				for k := 0; k <= l; k++ {
					a[i*n+k] /= scale
					h += a[i*n+k] * a[i*n+k]
				}
				f := a[i*n+l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					if accumulate {
						a[j*n+i] = a[i*n+j] / h
					}
					g := 0.0
					for k := 0; k <= j; k++ {
						g += a[j*n+k] * a[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * a[i*n+k]
					}
					e[j] = g / h
					f += e[j] * a[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f := a[i*n+j]
					g := e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j*n+k] -= f*e[k] + g*a[i*n+k]
					}
				}
			}
		} else {
			e[i] = a[i*n+l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	if !accumulate {
		for i := 0; i < n; i++ {
			d[i] = a[i*n+i]
		}
		return
	}
	for i := 0; i < n; i++ {
		if d[i] != 0 {
			u := a[i*n : i*n+i]
			wi := w[:len(u)]
			for k := range wi {
				wi[k] = a[k*n+i]
			}
			for j := 0; j < i; j++ {
				zj := a[j*n : j*n+i][:len(u)]
				g := 0.0
				for k, v := range u {
					g += v * zj[k]
				}
				for k, wk := range wi {
					zj[k] -= g * wk
				}
			}
		}
		row := a[i*n : i*n+i+1]
		d[i] = row[i]
		clear(row[:i])
		row[i] = 1
		for j := 0; j < i; j++ {
			a[j*n+i] = 0
		}
	}
}

// qlHypot is math.Hypot's own formula, max·sqrt(1+(min/max)²), which
// both the amd64 assembly and the portable Go version evaluate, so its
// result is bitwise math.Hypot's. It reports false, leaving the answer
// to math.Hypot, when an operand is zero, infinite or NaN. Unlike the
// assembly call it inlines into the QL loop.
func qlHypot(p, q float64) (float64, bool) {
	p, q = math.Abs(p), math.Abs(q)
	if p < q {
		p, q = q, p
	}
	if !(p > 0 && p <= math.MaxFloat64 && q == q) {
		return 0, false
	}
	q /= p
	return p * math.Sqrt(1+q*q), true
}

// tqli diagonalizes a symmetric tridiagonal matrix with diagonal d and
// subdiagonal e[1..n-1] (as produced by tred2) using the QL algorithm
// with implicit shifts. d is overwritten with eigenvalues (unsorted).
// If z is non-nil (n-by-n row-major), its rows are rotated so that row
// j becomes the eigenvector of d[j]; pass the basis tred2 leaves in a
// to get eigenvectors of the original matrix, or the identity for
// eigenvectors of the tridiagonal matrix itself. Each Givens rotation updates two
// contiguous rows.
func tqli(d, e []float64, n int, z []float64) error {
	if n == 1 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const maxIter = 50
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return ErrNoConvergence
			}
			iter++
			g := (d[l+1] - d[l]) / (2 * e[l])
			r, ok := qlHypot(g, 1)
			if !ok {
				r = math.Hypot(g, 1)
			}
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				if r, ok = qlHypot(f, g); !ok {
					r = math.Hypot(f, g)
				}
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
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
					z1 := z[(i+1)*n : (i+1)*n+n]
					z0 := z[i*n : i*n+n][:len(z1)]
					for k, f := range z1 {
						z1[k] = s*z0[k] + c*f
						z0[k] = c*z0[k] - s*f
					}
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
