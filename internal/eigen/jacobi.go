package eigen

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// jacobiMaxSweeps caps a warm refinement; past it RefineSymEigenInto
// reports failure and the caller runs the full eigensolver. Measured
// over the dense oracle's Ψ sequences in Maximize on 32 random
// instances of each of dense-solve's shapes (8×8 and 6×10, MMW and
// ALO, eta = ε/4 of each decision call's ε; 516,591 warm calls, cap
// lifted): the shortcut accepted 75.8% of calls, 24.2% formed B and ran
// one sweep, 34 ran none and 2 ran two; none needed three. A start
// from the eigenbasis of an unrelated matrix (‖a‖₂ = 10, eta = 0.05)
// needs 3 sweeps at n = 8, 3–4 at n = 10 and 4–5 at n = 24, so the cap
// stops such a call after at most three sweeps (each about 6n³ flops,
// against the eigensolver's 9n³).
const jacobiMaxSweeps = 3

// shortcutGuard is the rounding allowance, relative to ‖a‖_F², of the
// shortcut's ‖offdiag B‖_F² = ‖a‖_F² − Σₖ bₖₖ²: the difference cancels,
// and its rounding error grows with ‖a‖_F², not with the difference.
const shortcutGuard = 1e-12

// RefineSymEigenInto refines an orthonormal basis V until it
// diagonalizes the symmetric a to within eta: the warm-started route of
// the dense oracle, whose Ψ moves by a few small, scaled constraints
// between calls, so the previous call's eigenbasis nearly diagonalizes
// the next Ψ.
//
// On entry dec.Vectors' columns are the basis V (for example, dec as
// SymEigenInto or a previous call left it). On success dec.Values[k] =
// B[k][k] of B = VᵀaV, in the basis's column order (not sorted, unlike
// SymEigenInto's), with ‖offdiag B‖_F ≤ eta. So dec is the exact
// eigendecomposition of ã = V·diag(B)·Vᵀ, and ‖ã − a‖₂ ≤ ‖ã − a‖_F =
// ‖offdiag B‖_F ≤ eta: every eigenvalue of ã is within eta of a's
// (Weyl), and so is log Tr exp.
//
// The kernel writes T = aV into tmp (n-by-n, contents ignored). Since
// V is orthogonal, ‖offdiag B‖_F² = ‖a‖_F² − Σₖ bₖₖ², and bₖₖ is the dot
// of V's and T's columns k; when that, plus a rounding guard of
// 1e-12·‖a‖_F², is at most eta², the call returns with B unformed
// (formed = false) and no sweep. Otherwise it forms B in b and runs
// cyclic Jacobi sweeps on it, rotating V's columns with it, until
// ‖offdiag B‖_F ≤ eta, skipping each rotation whose B[p][q]² ≤ eta²/n².
// A sweep visits each of the n(n−1)/2 pairs once, in round-robin order:
// n−1 rounds (n when n is odd) of disjoint pairs, whose rotations touch
// disjoint rows and columns and are independent, so a sweep has depth
// O(n).
//
// It reports ok = false, with dec.Vectors possibly rotated and
// dec.Values overwritten, when a or B holds a non-finite value or the
// sweeps have not converged after jacobiMaxSweeps; the caller then
// runs SymEigenInto on a, which returns its usual error or answer. a is not checked for symmetry;
// B is the upper triangle of Vᵀ(aV), mirrored. Nothing is allocated.
func RefineSymEigenInto(a *matrix.Dense, dec *Decomposition, b, tmp *matrix.Dense, eta float64) (sweeps int, formed, ok bool) {
	n := a.R
	v := dec.Vectors
	if v == nil || v.R != n || v.C != n || len(dec.Values) != n {
		return 0, false, false
	}
	matrix.MulABInto(tmp, a, v, nil)
	fro, dg := diagOfCongruence(dec.Values, v.Data, tmp.Data, a.Data, n)
	if !(fro <= math.MaxFloat64) || !(dg <= math.MaxFloat64) {
		return 0, false, false
	}
	if fro-dg+shortcutGuard*fro <= eta*eta {
		return 0, false, true
	}
	congruenceUpper(b.Data, v.Data, tmp.Data, n)
	sweeps, ok = jacobi(b.Data, v.Data, n, eta)
	if ok {
		for k := range dec.Values {
			dec.Values[k] = b.Data[k*n+k]
		}
	}
	return sweeps, true, ok
}

// diagOfCongruence writes bₖₖ = Σᵢ V[i][k]·T[i][k], the diagonal of
// B = VᵀT, into d and returns ‖a‖_F² and Σₖ bₖₖ². A non-finite entry
// makes one of them non-finite.
func diagOfCongruence(d, vd, td, ad []float64, n int) (fro, dg float64) {
	d = d[:n]
	for k := range d {
		d[k] = 0
	}
	for i := 0; i < n; i++ {
		vi, ti := vd[i*n : i*n+n][:len(d)], td[i*n : i*n+n][:len(d)]
		for k, x := range vi {
			d[k] += x * ti[k]
		}
	}
	for _, x := range ad[:n*n] {
		fro += x * x
	}
	for _, x := range d {
		dg += x * x
	}
	return fro, dg
}

// jacobi runs cyclic sweeps on the symmetric bd, rotating vd's columns
// with it, until ‖offdiag B‖_F ≤ eta (ok) or B turns out non-finite or
// jacobiMaxSweeps sweeps did not converge (not ok).
func jacobi(bd, vd []float64, n int, eta float64) (sweeps int, ok bool) {
	tol := eta * eta
	for ; ; sweeps++ {
		off, dg := offDiagSq(bd, n)
		if !(off <= math.MaxFloat64) || !(dg <= math.MaxFloat64) {
			return sweeps, false
		}
		if off <= tol {
			return sweeps, true
		}
		if sweeps == jacobiMaxSweeps {
			return sweeps, false
		}
		jacobiSweep(bd, vd, n, tol/float64(n*n))
	}
}

// RefineCost is the analytic work and depth of one RefineSymEigenInto
// call that formed B (or not) and ran the given number of sweeps, for
// callers to charge:
//   - always, the shortcut's test: T = a·V (2n³, depth log₂n), then the
//     n column dots and ‖a‖_F² (3n², depth log₂n);
//   - once B is formed: its upper triangle Vᵀ(aV) (n²(n+1), depth
//     log₂n), and a convergence test (an n² reduction, depth log₂n)
//     before each sweep and after the last;
//   - each sweep: n(n−1)/2 rotations of about 12n flops (two rows of B,
//     two columns of V), depth one per round of disjoint pairs.
func RefineCost(n, sweeps int, formed bool) (work, depth int64) {
	n64, lg := int64(n), parallel.Log2(n)
	work, depth = 2*n64*n64*n64+3*n64*n64, 2*lg
	if !formed {
		return work, depth
	}
	s := int64(sweeps)
	rounds := n64 - 1 + n64%2
	work += n64*n64*(n64+1) + s*6*n64*n64*(n64-1) + (s+1)*2*n64*n64
	depth += lg + s*rounds + (s+1)*lg
	return work, depth
}

// congruenceUpper writes B = Vᵀ·T for symmetric B into bd: the upper
// triangle row by row, B[i][j] = Σ_k V[k][i]·T[k][j] for j ≥ i with k
// ascending (each row an axpy sweep over T's rows), then mirrored.
func congruenceUpper(bd, vd, td []float64, n int) {
	for i := 0; i < n; i++ {
		bi := bd[i*n+i : i*n+n]
		for j := range bi {
			bi[j] = 0
		}
		for k := 0; k < n; k++ {
			vki := vd[k*n+i]
			tk := td[k*n+i : k*n+n][:len(bi)]
			for j, t := range tk {
				bi[j] += vki * t
			}
		}
		for j := i + 1; j < n; j++ {
			bd[j*n+i] = bd[i*n+j]
		}
	}
}

// offDiagSq returns Σ_{i≠j} B[i][j]² and Σ_i B[i][i]² over the
// symmetric bd. A non-finite entry makes one of them non-finite.
func offDiagSq(bd []float64, n int) (off, dg float64) {
	for i := 0; i < n; i++ {
		row := bd[i*n : i*n+n]
		dg += row[i] * row[i]
		for _, x := range row[i+1:] {
			off += x * x
		}
	}
	return 2 * off, dg
}

// jacobiSweep runs one cyclic sweep over every pair in round-robin
// order (see roundPair). A rotation whose B[p][q]² is at most skip is
// left out: if every off-diagonal entry is that small, the convergence
// test passes.
func jacobiSweep(bd, vd []float64, n int, skip float64) {
	nn := n + n%2
	for r := 0; r < nn-1; r++ {
		for i := 0; i < nn/2; i++ {
			if p, q := roundPair(nn, r, i); q < n {
				rotate(bd, vd, n, p, q, skip)
			}
		}
	}
}

// roundPair returns pair i (0 ≤ i < nn/2) of round r (0 ≤ r < nn−1) of
// the circle method on nn (even) players, with p < q: player nn−1 stays
// put while the others turn, so each round's pairs are disjoint and
// the nn−1 rounds meet every pair once. For an odd n, nn = n+1 and the
// pairs with q = n (the dummy) are byes.
func roundPair(nn, r, i int) (p, q int) {
	p, q = r, nn-1
	if i > 0 {
		p, q = (r+i)%(nn-1), (r-i+nn-1)%(nn-1)
	}
	if p > q {
		p, q = q, p
	}
	return p, q
}

// rotate applies the Jacobi rotation that zeroes B[p][q] (p < q) to B,
// as JᵀBJ, and to V's columns p and q. One pass over k rotates B's rows
// p and q, mirrors them into columns p and q, and rotates row k of V's
// columns; the pass writes garbage only into the 2×2 block {p, q}²,
// which the closed form then sets.
func rotate(bd, vd []float64, n, p, q int, skip float64) {
	bp, bq := bd[p*n:p*n+n], bd[q*n:q*n+n]
	apq := bp[q]
	if apq*apq <= skip {
		return
	}
	app, aqq := bp[p], bq[q]
	theta := (aqq - app) / (2 * apq)
	var t, c, s float64
	if math.Abs(theta) > 1e8 {
		// t = 1/(2θ) and c = 1 to within rounding (t² < 1e-16).
		t = 0.5 / theta
		c, s = 1, t
	} else {
		t = 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
		if theta < 0 {
			t = -t
		}
		c = 1 / math.Sqrt(t*t+1)
		s = t * c
	}
	bq = bq[:len(bp)]
	ip, iq := p, q
	for k, x := range bp {
		y := bq[k]
		x, y = c*x-s*y, s*x+c*y
		bp[k], bq[k] = x, y
		bd[ip], bd[iq] = x, y
		x, y = vd[ip], vd[iq]
		vd[ip], vd[iq] = c*x-s*y, s*x+c*y
		ip += n
		iq += n
	}
	bp[p], bq[q] = app-t*apq, aqq+t*apq
	bp[q], bq[p] = 0, 0
}
