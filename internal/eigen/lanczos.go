package eigen

import (
	"errors"
	"math/rand/v2"

	"repro/internal/matrix"
	"repro/internal/work"
)

// LanczosOpts configures LanczosMax.
type LanczosOpts struct {
	// MaxIter bounds the Krylov dimension; 0 means min(dim, 128).
	MaxIter int
	// Tol is the relative convergence tolerance on the top Ritz value;
	// 0 means 1e-10.
	Tol float64
	// Rng provides the random start vector; nil means a fixed-seed PCG,
	// keeping results deterministic.
	Rng *rand.Rand
	// WS, when non-nil, supplies reusable storage for the Krylov basis
	// and all scratch vectors, making repeated calls allocation-free
	// after the first. The same WS must not be used concurrently.
	WS *LanczosWS
}

// LanczosWS is the reusable storage of one Lanczos run: the basis
// vectors of the Krylov space, the tridiagonal coefficients, and the
// CGS2 projection scratch. A zero LanczosWS is ready to use; it grows
// to the largest (dim, maxIter) seen and is reused thereafter. The
// factored oracles keep one per oracle so the per-iteration λ_max(Ψ)
// refresh stops allocating.
type LanczosWS struct {
	v, w   []float64
	basis  [][]float64 // backing rows, length dim each, grown on demand
	alphas []float64
	betas  []float64
	coeffs []float64
	td, te []float64 // tridiagonal eigenvalue scratch
	rt     ritzTracker
}

// ensure sizes the workspace for a run of at most maxIter iterations in
// dimension dim.
func (ws *LanczosWS) ensure(dim, maxIter int) {
	if len(ws.v) != dim {
		ws.v = make([]float64, dim)
		ws.w = make([]float64, dim)
		ws.basis = ws.basis[:0] // rows have the wrong length now
	}
	if cap(ws.basis) < maxIter {
		basis := make([][]float64, len(ws.basis), maxIter)
		copy(basis, ws.basis)
		ws.basis = basis
	}
	if cap(ws.alphas) < maxIter {
		ws.alphas = make([]float64, 0, maxIter)
		ws.betas = make([]float64, 0, maxIter)
		ws.coeffs = make([]float64, maxIter)
		ws.td = make([]float64, maxIter)
		ws.te = make([]float64, maxIter)
	}
}

// Prewarm sizes the workspace for (dim, maxIter) and installs every
// basis row up front, drawn from pool, so later runs never allocate no
// matter how deep their Krylov spaces grow — the guarantee the
// zero-allocation oracle paths need (lazy row growth would otherwise
// allocate whenever a refresh converges slower than any before it).
// Hand the rows back with ReleaseBasis when the owning run retires; a
// nil pool degrades to plain allocation.
func (ws *LanczosWS) Prewarm(pool *work.Workspace, dim, maxIter int) {
	if dim <= 0 {
		return
	}
	if maxIter > dim {
		maxIter = dim
	}
	ws.ensure(dim, maxIter)
	for len(ws.basis) < maxIter {
		ws.basis = append(ws.basis, pool.Vec(dim))
	}
}

// ReleaseBasis returns every basis row to pool and empties the basis
// (rows grown lazily past the prewarm depth are pooled too). The
// workspace must not be mid-run.
func (ws *LanczosWS) ReleaseBasis(pool *work.Workspace) {
	for _, r := range ws.basis {
		pool.PutVec(r)
	}
	ws.basis = ws.basis[:0]
}

// row returns basis row j, allocating it on first use.
func (ws *LanczosWS) row(j, dim int) []float64 {
	if j < len(ws.basis) {
		return ws.basis[j]
	}
	r := make([]float64, dim)
	ws.basis = append(ws.basis, r)
	return r
}

// LanczosMax estimates the largest eigenvalue of the symmetric operator
// apply (out = A·in, dimension dim) using the Lanczos process with full
// reorthogonalization. It is the certificate checker for factored
// instances, where Σ xᵢ QᵢQᵢᵀ is available only as a matvec.
//
// For PSD operators the returned value is a lower bound on λ_max that
// converges rapidly (error decays exponentially in the iteration count
// for separated spectra). The caller should treat it as an estimate
// with relative accuracy around Tol.
//
// The exit test after each step is decided on a certified bracket of
// the top Ritz value (see ritz.go); tqli runs on the steps the bracket
// cannot settle and on the step that exits, so the result is bit for
// bit that of running tqli after every step.
func LanczosMax(apply func(in, out []float64), dim int, opts LanczosOpts) (float64, error) {
	if dim <= 0 {
		return 0, errors.New("eigen: LanczosMax: dimension must be positive")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 128
	}
	if maxIter > dim {
		maxIter = dim
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewPCG(0x1a2b3c4d, 0x5e6f7081))
	}
	ws := opts.WS
	if ws == nil {
		ws = &LanczosWS{}
	}
	ws.ensure(dim, maxIter)

	if dim == 1 {
		out := ws.w[:1]
		ws.v[0] = 1
		apply(ws.v[:1], out)
		return out[0], nil
	}

	v := ws.v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if matrix.Normalize(v) == 0 {
		return 0, errors.New("eigen: LanczosMax: degenerate start vector")
	}

	alphas := ws.alphas[:0]
	betas := ws.betas[:0]
	w := ws.w

	for j := 0; j < maxIter; j++ {
		bj := ws.row(j, dim)
		copy(bj, v)
		basis := ws.basis[:j+1]
		apply(v, w)
		alpha := matrix.VecDot(w, v)
		alphas = append(alphas, alpha)
		// Full reorthogonalization, batched: two classical Gram–Schmidt
		// sweeps (CGS2, numerically on par with modified GS against an
		// orthonormal basis) so each sweep is one parallel pass — all
		// projection coefficients first, then a single blocked update —
		// instead of a sequential AXPY chain per basis vector.
		reorthogonalize(w, basis, ws.coeffs[:j+1])
		reorthogonalize(w, basis, ws.coeffs[:j+1])
		beta := matrix.VecNorm2(w)
		// Exit on an invariant subspace (beta ≤ 1e-14·max(1, |lam|):
		// the Ritz values are exact) or once the top Ritz value lam
		// moves by at most tol·max(1, |lam|); ritzStep decides both
		// without a QL run on the steps that go on.
		lam, done, err := ws.ritzStep(alphas, betas, beta, tol, j)
		if err != nil {
			return 0, err
		}
		if done {
			return lam, nil
		}
		betas = append(betas, beta)
		matrix.VecScale(v, 1/beta, w)
	}
	return ws.ritzLast(alphas, betas)
}

// reorthogonalize removes the components of w along every basis vector
// with one classical Gram–Schmidt sweep, as two fused passes: the
// projection coefficients come from VecMultiDot (w streamed once across
// four basis rows at a time, bit-identical to per-row VecDots), then the
// update is a single VecLinComb pass. Negation is exact (a sign-bit
// flip), so the coefficients match the old -VecDot loop bitwise. coeffs
// is caller scratch of length len(basis).
func reorthogonalize(w []float64, basis [][]float64, coeffs []float64) {
	matrix.VecMultiDot(coeffs, w, basis)
	for u := range coeffs {
		coeffs[u] = -coeffs[u]
	}
	matrix.VecLinComb(w, coeffs, basis)
}

// topRitz returns the largest eigenvalue of the Lanczos tridiagonal
// matrix with diagonal alphas and subdiagonal betas, using ws's
// tridiagonal scratch.
func topRitz(alphas, betas []float64, ws *LanczosWS) (float64, error) {
	n := len(alphas)
	sub := betas[:min(len(betas), n-1)]
	d := ws.td[:n]
	e := ws.te[:n]
	copy(d, alphas)
	// tqli expects the subdiagonal in e[1..n-1].
	e[0] = 0
	for i := 1; i < n; i++ {
		e[i] = sub[i-1]
	}
	if err := tqli(d, e, n, nil); err != nil {
		return 0, err
	}
	top := d[0]
	for _, v := range d[1:] {
		if v > top {
			top = v
		}
	}
	return top, nil
}

// PowerMax estimates the largest eigenvalue of the symmetric PSD
// operator apply by power iteration. Slower to converge than Lanczos
// but unconditionally simple; used as a cross-check in tests.
func PowerMax(apply func(in, out []float64), dim, iters int, rng *rand.Rand) (float64, error) {
	if dim <= 0 {
		return 0, errors.New("eigen: PowerMax: dimension must be positive")
	}
	if iters <= 0 {
		iters = 200
	}
	if rng == nil {
		rng = rand.New(rand.NewPCG(42, 43))
	}
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Normalize(v)
	w := make([]float64, dim)
	lam := 0.0
	for k := 0; k < iters; k++ {
		apply(v, w)
		lam = matrix.VecDot(v, w)
		if matrix.Normalize(w) == 0 {
			return 0, nil // operator annihilated v: eigenvalue 0 direction
		}
		v, w = w, v
	}
	return lam, nil
}
