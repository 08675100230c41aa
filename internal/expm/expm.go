// Package expm computes matrix exponentials, the primitive at the heart
// of Algorithm 3.1: every iteration needs exp(Ψ)•Aᵢ for all i, where
// Ψ = Σ xᵢAᵢ is PSD with ‖Ψ‖₂ ≤ (1+10ε)K (paper Lemma 3.2).
//
// Three evaluation strategies are provided, mirroring the paper:
//
//   - ExpSym / NormalizedExpSym: exact eigendecomposition-based
//     exponentials for the dense reference path. NormalizedExpSym works
//     with the shifted matrix exp(Ψ−λ_max I), which never overflows, and
//     returns the probability matrix P = exp(Ψ)/Tr[exp(Ψ)] directly —
//     all of Algorithm 3.1's tests are scale-free ratios.
//   - TaylorExpPSD: the truncated Taylor series of Lemma 4.2 (Arora–
//     Kale Lemma 6): degree k = max{e²κ, ln(2ε⁻¹)} gives the Loewner
//     sandwich (1−ε)exp(B) ≼ B̂ ≼ exp(B).
//   - ExpMV: applies exp(A) to a vector using segmented Taylor
//     evaluation with running log-scale normalization, the workhorse of
//     the operator oracles' bigDotExp path (Theorem 4.1). Cost:
//     O(‖A‖·log(1/tol)) operator applications, each O(nnz) work.
//     ExpMVBlockInto advances k such chains of exp(t·A) against one
//     operator in lockstep, one block application per Taylor term.
package expm

import (
	"errors"
	"math"

	"repro/internal/eigen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/work"
)

// ExpSym returns exp(a) for symmetric a via full eigendecomposition.
// It overflows for ‖a‖₂ ≳ 709; use NormalizedExpSym in solver loops.
func ExpSym(a *matrix.Dense) (*matrix.Dense, error) {
	dec, err := eigen.SymEigen(a)
	if err != nil {
		return nil, err
	}
	return dec.Apply(math.Exp), nil
}

// NormalizedExpSym returns the "probability matrix" of the MMW framework,
//
//	P = exp(a) / Tr[exp(a)],
//
// computed shift-invariantly as exp(a−λ_max I)/Tr[exp(a−λ_max I)], along
// with λ_max(a) and logTr = log Tr[exp(a)] = λ_max + log Tr[exp(a−λ_max I)].
// This never overflows regardless of ‖a‖₂.
func NormalizedExpSym(a *matrix.Dense) (p *matrix.Dense, lambdaMax, logTr float64, err error) {
	dst := matrix.New(a.R, a.C)
	lambdaMax, logTr, err = NormalizedExpSymInto(nil, a, &eigen.Decomposition{}, dst)
	if err != nil {
		return nil, 0, 0, err
	}
	return dst, lambdaMax, logTr, nil
}

// NormalizedExpSymInto is NormalizedExpSym with caller-managed storage:
// the probability matrix is written into dst and the eigendecomposition
// reuses dec across calls, so the dense oracle's per-iteration
// exponential allocates nothing once dec, dst, and the workspace are
// warm. dst must not alias a.
func NormalizedExpSymInto(ws *work.Workspace, a *matrix.Dense, dec *eigen.Decomposition, dst *matrix.Dense) (lambdaMax, logTr float64, err error) {
	if err := eigen.SymEigenInto(ws, a, dec); err != nil {
		return 0, 0, err
	}
	return NormalizedExpEigInto(ws, dec, dst)
}

// NormalizedExpEigInto is NormalizedExpSymInto's second half: the
// probability matrix exp(A − λ_max I)/Tr of A = V·diag(Values)·Vᵀ, from
// a decomposition dec whose values may come in any order (λ_max is the
// first largest; on SymEigenInto's sorted values, Values[0]). The dense
// oracle's warm route calls it on RefineSymEigenInto's output. It fails
// only on a degenerate trace.
func NormalizedExpEigInto(ws *work.Workspace, dec *eigen.Decomposition, dst *matrix.Dense) (lambdaMax, logTr float64, err error) {
	lambdaMax = dec.Values[0]
	for _, lam := range dec.Values[1:] {
		if lam > lambdaMax {
			lambdaMax = lam
		}
	}
	// exp(Λ − λ_max I) computed inline rather than via Apply's function-
	// valued parameter: a closure capturing lambdaMax would heap-allocate
	// on every iteration.
	n := len(dec.Values)
	fl := ws.Vec(n)
	for j, lam := range dec.Values {
		fl[j] = math.Exp(lam - lambdaMax)
	}
	matrix.CongruenceDiagInto(dst, dec.Vectors, fl, nil)
	ws.PutVec(fl)
	tr := dst.Trace()
	if tr <= 0 || math.IsNaN(tr) {
		return 0, 0, errors.New("expm: degenerate trace in NormalizedExpSym")
	}
	matrix.Scale(dst, 1/tr, dst)
	return lambdaMax, lambdaMax + math.Log(tr), nil
}

// TaylorDegree returns the truncation degree of Lemma 4.2:
// k = max{⌈e²·κ⌉, ⌈ln(2/ε)⌉}, valid whenever ‖B‖₂ ≤ κ.
func TaylorDegree(kappa, eps float64) int {
	if kappa < 0 {
		kappa = 0
	}
	k1 := int(math.Ceil(math.E * math.E * kappa))
	k2 := 1
	if eps > 0 && eps < 2 {
		k2 = int(math.Ceil(math.Log(2 / eps)))
	}
	k := k1
	if k2 > k {
		k = k2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// TaylorExpPSD evaluates B̂ = Σ_{0≤i<k} Bⁱ/i! for symmetric PSD B by
// Horner's scheme. Per Lemma 4.2, with k = TaylorDegree(κ, ε) and
// ‖B‖₂ ≤ κ this satisfies (1−ε)exp(B) ≼ B̂ ≼ exp(B).
// Cost: k dense multiplies (work O(k·m³)); the factored path avoids this
// via ExpMV, but the dense form is what Lemma 4.2 is stated for and is
// validated directly in experiment E5.
func TaylorExpPSD(b *matrix.Dense, k int) *matrix.Dense {
	return TaylorExpPSDWS(nil, b, k)
}

// TaylorExpPSDWS is TaylorExpPSD drawing its two Horner ping-pong
// matrices from ws: each multiply writes into the retired iterate
// instead of a fresh matrix, so a warm workspace makes the whole Horner
// chain allocation-free apart from the returned matrix.
func TaylorExpPSDWS(ws *work.Workspace, b *matrix.Dense, k int) *matrix.Dense {
	if !b.IsSquare() {
		panic("expm: TaylorExpPSD of non-square matrix")
	}
	if k < 1 {
		k = 1
	}
	n := b.R
	// Horner: p = I + B/(k-1)·(I + B/(k-2)·(...)). Every Horner iterate
	// is a polynomial in B, so each product B·p is symmetric and the
	// blocked symmetric kernel (half the multiply work, exact symmetry)
	// applies. p and q ping-pong: the product lands in the buffer the
	// previous iterate vacates.
	p := ws.Mat(n, n)
	q := ws.Mat(n, n)
	p.Zero()
	matrix.AddScaledIdentity(p, 1)
	for i := k - 1; i >= 1; i-- {
		matrix.SymMulABInto(q, b, p, nil)
		p, q = q, p
		matrix.Scale(p, 1/float64(i), p)
		matrix.AddScaledIdentity(p, 1)
	}
	ws.PutMat(q)
	return p
}

// expMVSegNorm is the per-segment norm budget for ExpMV's segmented
// Taylor evaluation: segments apply exp(A/s) with ‖A/s‖₂ ≤ expMVSegNorm,
// keeping the series short and the intermediate values well-scaled.
const expMVSegNorm = 8.0

// ExpMV computes w ≈ exp(A)·v for a symmetric operator A available as
// apply (out = A·in), with ‖A‖₂ ≤ normUB. The result is returned as a
// pair (w, logScale) with exp(A)·v ≈ e^{logScale}·w and ‖w‖₂ = O(1),
// so no overflow occurs even when ‖A‖₂·‖v‖ is astronomically large.
// tol is the relative truncation tolerance per segment (default 1e-12
// when tol <= 0).
//
// The evaluation splits exp(A) = (exp(A/s))^s with s = ⌈normUB/8⌉ and
// runs an adaptively truncated Taylor series per segment — the vector
// form of Lemma 4.2 with scaling, using O(normUB·log(1/tol)) applies.
func ExpMV(apply func(in, out []float64), v []float64, normUB, tol float64) (w []float64, logScale float64) {
	dst := make([]float64, len(v))
	logScale = ExpMVInto(dst, apply, v, normUB, tol, nil)
	return dst, logScale
}

// MVScratch is the reusable scratch of one ExpMV evaluation: three
// blocks (the running Taylor terms, their successors, and the segment
// accumulators) plus the per-chain squared norms and liveness masks of
// the lockstep form. The operator oracles keep one for the whole block
// of chains, so their per-iteration exponentials never allocate.
type MVScratch struct {
	term, next, sum []float64
	termSq, sumSq   []float64
	termBlk, sumBlk []float64 // per-block partials of the two above
	live, active    []bool
}

// ensure sizes the scratch for n block entries over k chains, reusing
// capacity so a scratch shared by blocks of different widths stops
// allocating once it has seen the widest.
func (s *MVScratch) ensure(n, k int) {
	s.term, s.next, s.sum = work.Resize(s.term, n), work.Resize(s.next, n), work.Resize(s.sum, n)
	s.termSq, s.sumSq = work.Resize(s.termSq, k), work.Resize(s.sumSq, k)
	s.termBlk, s.sumBlk = work.Resize(s.termBlk, k), work.Resize(s.sumBlk, k)
	s.live, s.active = work.Resize(s.live, k), work.Resize(s.active, k)
}

// ExpMVInto is ExpMV writing the result vector into dst (which must
// have the length of v and may not alias it) and drawing scratch from
// sc; a nil sc allocates fresh scratch. It returns the log-scale. It is
// the one-chain case of ExpMVBlockInto.
func ExpMVInto(dst []float64, apply func(in, out []float64), v []float64, normUB, tol float64, sc *MVScratch) (logScale float64) {
	var logs [1]float64
	ExpMVBlockInto(dst, logs[:], apply, v, 1, normUB, tol, sc)
	return logs[0]
}

// ExpMVBlockInto advances k = len(logs) chains of exp(t·A)·v against
// the same operator in lockstep: v holds the k start vectors
// interleaved (entry i of chain c at v[i·k+c]), apply maps such a block
// to its A-image in one call, and chain c's result lands in dst with
// the same layout and its log-scale in logs[c]. normUB bounds ‖t·A‖₂.
// dst may not alias v; a nil sc allocates fresh scratch.
//
// t enters only through the Taylor coefficients t/(s·j), so a power of
// two t gives bitwise the chains of t = 1 over an apply that scales its
// output by t (barring underflow to subnormals): the operator oracles
// evaluate exp(Ψ/2) as t = ½ over Ψ without a scaling pass.
//
// Every chain keeps its own truncation test, normalization and
// log-scale, and shares the segmentation set by normUB, so each result
// is bit-for-bit that of the one-chain loop on the chain alone (scale
// the new term, add it to the sum, compare the two 2-norms): per-chain
// norms replay VecNorm2's block tree, a chain whose series has
// converged stops accumulating (its terms are still carried through
// apply, then discarded), and a chain that starts or becomes exactly
// zero keeps its current value from then on. After each apply one pass
// over the block does the scaling, the sums and both norms.
func ExpMVBlockInto(dst, logs []float64, apply func(in, out []float64), v []float64, t, normUB, tol float64, sc *MVScratch) {
	if tol <= 0 {
		tol = 1e-12
	}
	if normUB < 0 {
		normUB = 0
	}
	k, n := len(logs), len(v)
	if k == 0 || n%k != 0 || len(dst) != n {
		panic("expm: ExpMVBlockInto length mismatch")
	}
	if sc == nil {
		sc = &MVScratch{}
	}
	sc.ensure(n, k)
	segments := int(math.Ceil(normUB / expMVSegNorm))
	if segments < 1 {
		segments = 1
	}
	invS := 1.0 / float64(segments)

	cur := dst
	copy(cur, v)
	live := sc.live
	for c := range logs {
		logs[c] = 0
		live[c] = true
	}
	nLive := sc.normalize(cur, logs)
	if nLive == 0 {
		return // exp(A)·0 = 0 for every chain
	}

	term, next, sum := sc.term, sc.next, sc.sum
	active := sc.active
	// Terms needed per segment: the series for e^θ with θ=8 needs ~35
	// terms to reach 1e-16 relative; cap generously.
	maxTerms := 64

	for seg := 0; seg < segments; seg++ {
		copy(sum, cur)
		copy(term, cur)
		copy(active, live)
		nActive := nLive
		for j := 1; j <= maxTerms; j++ {
			apply(term, next)
			term, next = next, term
			sc.addTerm(sum, term, t*invS/float64(j), nActive == k)
			for c, a := range active {
				if a && math.Sqrt(sc.termSq[c]) <= tol*math.Sqrt(sc.sumSq[c]) {
					active[c] = false
					nActive--
				}
			}
			if nActive == 0 {
				break
			}
		}
		for i := 0; i < n; i += k {
			for c, l := range live {
				if l {
					cur[i+c] = sum[i+c]
				}
			}
		}
		if nLive = sc.normalize(cur, logs); nLive == 0 {
			return
		}
	}
}

// normalize scales every live chain of the block x to unit 2-norm and
// adds the log of its norm to logs, exactly as matrix.Normalize would
// on the chain alone. A chain whose norm is not positive (exactly zero,
// or NaN) stops being live, which is where the one-chain loop would
// return. It returns the number of chains still live.
func (sc *MVScratch) normalize(x, logs []float64) int {
	k := len(logs)
	chainSumSq(sc.sumSq, sc.sumBlk, x, k)
	nLive := 0
	for c, l := range sc.live {
		if !l {
			continue
		}
		nrm := math.Sqrt(sc.sumSq[c])
		if nrm != 0 {
			inv := 1 / nrm
			for i := c; i < len(x); i += k {
				x[i] = inv * x[i]
			}
		}
		if !(nrm > 0) {
			sc.live[c] = false
			continue
		}
		nLive++
		logs[c] += math.Log(nrm)
	}
	return nLive
}

// addTerm scales the new Taylor terms of every chain by f, adds them
// into the sums of the active chains, and leaves each chain's squared
// 2-norms of term and sum in termSq and sumSq. Each squared norm is
// summed over the block tree VecDot uses for a vector of the chain's
// length, so its square root is bitwise the chain's VecNorm2. When
// every chain is active (the common case), chains go four at a time
// with their block partials in registers; each chain still takes its
// rows in order, so the sums are unchanged.
func (sc *MVScratch) addTerm(sum, term []float64, f float64, allActive bool) {
	k := len(sc.termSq)
	m := len(term) / k
	blocks := parallel.BlockCount(m, 4096)
	tsq, ssq, tb, sb := sc.termSq, sc.sumSq, sc.termBlk, sc.sumBlk
	clear(tsq)
	clear(ssq)
	for b := 0; b < blocks; b++ {
		lo, hi := b*m/blocks*k, (b+1)*m/blocks*k
		c0 := 0
		if allActive {
			for ; c0+4 <= k; c0 += 4 {
				var t0, t1, t2, t3, q0, q1, q2, q3 float64
				for i := lo + c0; i < hi; i += k {
					ti, si := term[i:i+4], sum[i:i+4]
					// The conversions round each scaled term before the
					// sum takes it: no fused multiply-add on the way in.
					a0, a1, a2, a3 := float64(ti[0]*f), float64(ti[1]*f), float64(ti[2]*f), float64(ti[3]*f)
					s0, s1, s2, s3 := si[0]+a0, si[1]+a1, si[2]+a2, si[3]+a3
					ti[0], ti[1], ti[2], ti[3] = a0, a1, a2, a3
					si[0], si[1], si[2], si[3] = s0, s1, s2, s3
					t0, t1, t2, t3 = t0+a0*a0, t1+a1*a1, t2+a2*a2, t3+a3*a3
					q0, q1, q2, q3 = q0+s0*s0, q1+s1*s1, q2+s2*s2, q3+s3*s3
				}
				tb[c0], tb[c0+1], tb[c0+2], tb[c0+3] = t0, t1, t2, t3
				sb[c0], sb[c0+1], sb[c0+2], sb[c0+3] = q0, q1, q2, q3
			}
		}
		clear(tb[c0:])
		clear(sb[c0:])
		for i := lo; i < hi; i += k {
			ti, si := term[i:i+k], sum[i:i+k]
			for c := c0; c < k; c++ {
				t := float64(ti[c] * f)
				ti[c] = t
				if sc.active[c] {
					si[c] += t
				}
				tb[c] += t * t
				sb[c] += si[c] * si[c]
			}
		}
		for c := range tsq {
			tsq[c] += tb[c]
			ssq[c] += sb[c]
		}
	}
}

// chainSumSq writes out[c] = Σᵢ x[i·k+c]², each chain's sum taken over
// the block tree VecDot uses for a vector of the chain's length (block
// partials in part), so math.Sqrt(out[c]) is bitwise the VecNorm2 of
// chain c on its own.
func chainSumSq(out, part, x []float64, k int) {
	m := len(x) / k
	blocks := parallel.BlockCount(m, 4096)
	clear(out)
	for b := 0; b < blocks; b++ {
		clear(part)
		for i := b * m / blocks * k; i < (b+1)*m/blocks*k; i += k {
			for c, v := range x[i : i+k] {
				part[c] += v * v
			}
		}
		for c, p := range part {
			out[c] += p
		}
	}
}

// ExpMVCost estimates the analytic work and depth of one ExpMV call
// with the given operator nnz and norm bound: segments·terms applies in
// sequence, each O(nnz) work and O(log m) depth.
func ExpMVCost(nnz int, normUB, tol float64, m int) (work, depth int64) {
	if tol <= 0 {
		tol = 1e-12
	}
	segments := int(math.Ceil(normUB / expMVSegNorm))
	if segments < 1 {
		segments = 1
	}
	terms := int64(segments) * int64(int(math.Ceil(math.Log(1/tol)))+int(expMVSegNorm))
	return terms * int64(2*nnz+2*m), terms * parallel.Log2(m)
}
