package eigen

import "math"

// The Lanczos loop asks two yes/no questions after every Krylov step j
// about lam = topRitz(T_n), the top eigenvalue of the n = j+1 square
// tridiagonal, as tqli computes it:
//
//	beta ≤ 1e-14·max(1, |lam|)               (invariant subspace)
//	j ≥ 2 and |lam − prev| ≤ tol·max(1, |lam|)  (converged)
//
// Only the step that answers "yes" needs lam itself. The ritzTracker
// answers "no" without running tqli: it keeps a bracket [lo, hi] on the
// exact λ_max(T_n), warm-started from the previous step's bracket and
// tightened by O(n) Sturm evaluations, and proves "no" for every value
// within the QL rounding slack of the bracket. Any step it cannot
// prove, and every step that exits, runs tqli and applies the tests to
// the exact values, so LanczosMax returns the bits, the exit step and
// the error of running topRitz at every step. The one outcome it cannot
// see is tqli failing to converge on a finite T_n of a step that goes
// on, where the old loop returned ErrNoConvergence; QL has not been
// seen to fail on finite input of the tracker's range.

const (
	// ritzSlack·n·max(1, ‖T_n‖) bounds |topRitz(T_n) − λ_max(T_n)| and
	// the rounding of a Sturm count (u = 2⁻⁵³). Measured QL errors stay
	// below 2·n·u·max(1, ‖T_n‖), and the boundary-tolerance test breaks
	// bit-identity at a factor of 1 but holds from 2, so 64 is wide
	// margin.
	ritzSlack = 64 * 0x1p-53
	// ritzMaxEvals caps the Sturm evaluations of one step; a step still
	// undecided then runs tqli, so no input can loop.
	ritzMaxEvals = 16
	// ritzMaxNorm is the largest Gershgorin norm the tracker handles. A
	// larger or non-finite T_n (a NaN or Inf operator) switches the call
	// to tqli at every step, exactly as before the tracker existed.
	ritzMaxNorm = 1e150
)

// verdict is the outcome of the exit tests over a box of candidate
// (lam, prev) values.
type verdict int8

const (
	undecided verdict = iota
	proceed           // both tests fail for every candidate
	stop              // one test passes for every candidate
)

// ritzTracker is the per-call state of the top-Ritz bracket. It lives in
// LanczosWS, so tracking allocates nothing; step j = 0 resets it.
type ritzTracker struct {
	exact     bool    // tracking abandoned for this call: tqli every step
	lo, hi    float64 // bracket on λ_max(T_n)
	mid       float64 // midpoint of T_{n−1}'s bracket
	g, h      float64 // p'/p and −(p'/p)' of p(x) = det(T_n − xI) at hi
	hiEval    bool    // g, h belong to the current hi
	pLo, pHi  float64 // box holding prev = topRitz(T_{n−1})
	prevExact bool    // pLo == pHi == prev, computed by tqli
	// Gershgorin bounds on λ_max and on ‖T‖: over the rows whose two
	// off-diagonal neighbours are known, and over all n rows of T_n.
	upFinal, normFinal float64
	up, norm           float64
	maxB2              float64 // largest β² in T_n
	// Cumulative over the workspace's life, for benchmarks.
	qlRuns, sturmEvals int
}

// ritzStep applies the reference exit tests to Lanczos step j: alphas
// holds α_0..α_j, betas β_0..β_{j−1}, and beta is the norm of the next
// residual. It reports done with the value to return, or !done to go
// on, exactly as computing lam = topRitz at every step would.
func (ws *LanczosWS) ritzStep(alphas, betas []float64, beta, tol float64, j int) (float64, bool, error) {
	rt := &ws.rt
	n := len(alphas)
	rt.grow(alphas, betas)
	var lam float64
	switch {
	case n == 1:
		// topRitz of a 1×1 matrix is its entry, NaN included.
		lam = alphas[0]
		rt.exact = false
		rt.lo, rt.hi, rt.mid, rt.hiEval = lam, lam, lam, false
	case !rt.exact && rt.norm <= ritzMaxNorm:
		s := ritzSlack * float64(n) * max(1, rt.norm)
		if rt.bracket(alphas, betas, beta, tol, j, s) == proceed {
			rt.pLo, rt.pHi, rt.prevExact = rt.lo-s, rt.hi+s, false
			return 0, false, nil
		}
		var err error
		if lam, err = ws.ritzExact(alphas, betas); err != nil {
			return 0, false, err
		}
		switch decide(lam, lam, rt.pLo, rt.pHi, beta, tol, j) {
		case stop:
			return lam, true, nil
		case proceed:
			rt.pLo, rt.pHi, rt.prevExact = lam, lam, true
			return 0, false, nil
		}
		if err := ws.ritzPrev(alphas, betas); err != nil {
			return 0, false, err
		}
	default:
		rt.exact = true
		if err := ws.ritzPrev(alphas, betas); err != nil {
			return 0, false, err
		}
		var err error
		if lam, err = ws.ritzExact(alphas, betas); err != nil {
			return 0, false, err
		}
	}
	scale := math.Max(1, math.Abs(lam))
	if beta <= 1e-14*scale || j >= 2 && math.Abs(lam-rt.pLo) <= tol*scale {
		return lam, true, nil
	}
	rt.pLo, rt.pHi, rt.prevExact = lam, lam, true
	return 0, false, nil
}

// ritzLast returns topRitz of the last step's T_n, the value LanczosMax
// returns when MaxIter runs out.
func (ws *LanczosWS) ritzLast(alphas, betas []float64) (float64, error) {
	if ws.rt.prevExact {
		return ws.rt.pLo, nil
	}
	return ws.ritzExact(alphas, betas)
}

// ritzExact runs tqli on T_n.
func (ws *LanczosWS) ritzExact(alphas, betas []float64) (float64, error) {
	ws.rt.qlRuns++
	return topRitz(alphas, betas, ws)
}

// ritzPrev makes prev exact: topRitz of T_{n−1}, the value the previous
// step left only bracketed.
func (ws *LanczosWS) ritzPrev(alphas, betas []float64) error {
	rt := &ws.rt
	if rt.prevExact {
		return nil
	}
	p, err := ws.ritzExact(alphas[:len(alphas)-1], betas)
	if err != nil {
		return err
	}
	rt.pLo, rt.pHi, rt.prevExact = p, p, true
	return nil
}

// grow folds the newest row of T_n into the Gershgorin bounds and the
// largest β²; at n = 1 it starts them afresh.
func (rt *ritzTracker) grow(alphas, betas []float64) {
	n := len(alphas)
	a := alphas[n-1]
	if n == 1 {
		rt.upFinal, rt.normFinal, rt.maxB2 = math.Inf(-1), 0, 0
		rt.up, rt.norm = a, math.Abs(a)
		return
	}
	b := math.Abs(betas[n-2])
	r := b // row n−2 now has both neighbours
	if n >= 3 {
		r += math.Abs(betas[n-3])
	}
	rt.upFinal = max(rt.upFinal, alphas[n-2]+r)
	rt.normFinal = max(rt.normFinal, math.Abs(alphas[n-2])+r)
	rt.up = max(rt.upFinal, a+b)
	rt.norm = max(rt.normFinal, math.Abs(a)+b)
	rt.maxB2 = max(rt.maxB2, b*b)
}

// bracket moves [lo, hi] from T_{n−1} to T_n and tightens it until the
// exit tests are decided over [lo−s, hi+s] and, when they say proceed,
// the bracket is narrow enough to serve as the next step's prev.
//
// Warm start: λ_max(T_n) ≥ λ_max(T_{n−1}) ≥ lo by Cauchy interlacing,
// and ≥ α_j. Splitting T_n into T_{n−1} ⊕ α_j plus the β_{j−1}
// coupling bounds it above by the top eigenvalue of the 2×2
// [[hi, β], [β, α_j]], and Gershgorin caps that. Each evaluation then
// counts the eigenvalues below a point x on the LDLᵀ pivots of T_n − xI:
// all n below moves hi to x, fewer moves lo to x. The first point is a
// guess, hi plus twice the last step's growth (top Ritz values of a
// converging run grow by shrinking amounts); see probe for the rest.
func (rt *ritzTracker) bracket(alphas, betas []float64, beta, tol float64, j int, s float64) verdict {
	n := len(alphas)
	a, b := alphas[n-1], math.Abs(betas[n-2])
	mid := rt.lo + (rt.hi-rt.lo)/2
	guess := rt.hi + 2*(mid-rt.mid)
	rt.mid = mid
	rt.lo = max(rt.lo, a)
	rt.hi = min((rt.hi+a)/2+math.Hypot((rt.hi-a)/2, b), rt.up)
	if rt.hi < rt.lo {
		rt.hi = rt.lo
	}
	rt.hiEval = false
	width := max(s, tol*max(1, math.Abs(rt.hi))/4)
	pivmin := 0x1p-1022 * max(1, rt.maxB2)
	for evals := 0; ; evals++ {
		v := decide(rt.lo-s, rt.hi+s, rt.pLo, rt.pHi, beta, tol, j)
		if v == stop || v == proceed && rt.hi-rt.lo <= width || evals == ritzMaxEvals {
			return v
		}
		x, ok := rt.probe(n, guess, width)
		if !ok {
			return v
		}
		guess = math.NaN()
		rt.sturmEvals++
		c, g, h := sturm(alphas, betas, x, pivmin)
		if c == n {
			rt.hi, rt.g, rt.h, rt.hiEval = x, g, h, true
		} else {
			rt.lo = x
		}
	}
}

// probe picks the next evaluation point. Until hi has been evaluated:
// the guess if it lies in (lo, hi), else hi itself. From an evaluated
// hi, Laguerre's step, which lands above λ_max; once that step is at
// most width/2, the lower bound hi − G/H instead (G = Σ tₖ and
// H = Σ tₖ² with tₖ = 1/(hi − λₖ), so the largest tₖ ≥ H/G), moved
// down to hi − width/4 when it is closer. Bisection when the point is
// not inside (lo, hi).
func (rt *ritzTracker) probe(n int, guess, width float64) (float64, bool) {
	inside := func(x float64) bool { return x > rt.lo && x < rt.hi }
	if !rt.hiEval {
		if inside(guess) {
			return guess, true
		}
		return rt.hi, rt.hi > rt.lo
	}
	fn := float64(n)
	x := rt.hi - fn/(rt.g+math.Sqrt(max(0, (fn-1)*(fn*rt.h-rt.g*rt.g))))
	if !(rt.hi-x > width/2) {
		// hi is within width/2 of λ_max, or so close that G and H
		// overflowed.
		d := rt.g / rt.h
		if !(d > width/4) {
			d = width / 4
		}
		x = rt.hi - d
	}
	if !inside(x) {
		x = rt.lo + (rt.hi-rt.lo)/2
	}
	return x, inside(x)
}

// decide evaluates the exit tests for every lam in [lLo, lHi] and prev
// in [pLo, pHi] at once. Each side of both tests is monotone in |lam|
// and in lam − prev, rounding included, so the box corners settle it;
// for points it is the reference rule itself.
func decide(lLo, lHi, pLo, pHi, beta, tol float64, j int) verdict {
	amin, amax := absRange(lLo, lHi)
	if beta <= 1e-14*max(1, amin) {
		return stop
	}
	small := beta <= 1e-14*max(1, amax)
	if j < 2 {
		if small {
			return undecided
		}
		return proceed
	}
	dmin, dmax := absRange(lLo-pHi, lHi-pLo)
	if dmax <= tol*max(1, amin) {
		return stop
	}
	if !small && !(dmin <= tol*max(1, amax)) {
		return proceed
	}
	return undecided
}

// absRange returns the least and greatest |x| over x in [lo, hi].
func absRange(lo, hi float64) (float64, float64) {
	switch {
	case lo >= 0:
		return lo, hi
	case hi <= 0:
		return -hi, -lo
	}
	return 0, max(-lo, hi)
}

// sturm evaluates the LDLᵀ pivots dᵢ of T − xI for the tridiagonal T
// with diagonal alphas and subdiagonal betas. It returns how many
// eigenvalues of T lie below x (the negative pivots, by Sylvester's law
// of inertia), and G = p'/p and H = −(p'/p)' of p(x) = det(T − xI) =
// Π dᵢ, carried by differentiating the pivot recurrence. A pivot
// smaller than pivmin in magnitude is replaced by −pivmin, as in
// LAPACK's dstebz, which keeps exact zero pivots finite.
func sturm(alphas, betas []float64, x, pivmin float64) (count int, g, h float64) {
	var q, dp, dpp float64 // 1/d, d', d'' of the previous pivot
	for i, a := range alphas {
		var d float64
		if i == 0 {
			d, dp, dpp = a-x, -1, 0
		} else {
			t := betas[i-1] * betas[i-1] * q // β²/d
			dpp = t * q * (dpp - 2*dp*dp*q)
			dp = -1 + t*q*dp
			d = a - x - t
		}
		if math.Abs(d) < pivmin {
			d = -pivmin
		}
		if d < 0 {
			count++
		}
		q = 1 / d
		r := dp * q
		g += r
		h += r*r - dpp*q
	}
	return count, g, h
}
