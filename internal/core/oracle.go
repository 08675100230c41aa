package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/work"
)

// expOracle abstracts the per-iteration primitive of Algorithm 3.1:
// given the current dual vector x (maintained by the solver), produce
// the ratios
//
//	rᵢ = (exp(Ψ) • Aᵢ) / Tr[exp(Ψ)] = Aᵢ • P,   Ψ = Σᵢ xᵢAᵢ,
//
// which the solver thresholds against 1+ε. The two implementations are
// the exact eigendecomposition oracle (dense path) and the JL-sketched
// Taylor oracle realizing Theorem 4.1's bigDotExp (factored path).
//
// Oracles own their iteration state: every buffer the per-iteration
// path touches is drawn from the run's work.Workspace (or retained
// across iterations), so ratios/update allocate nothing in steady
// state. The ratio slice returned by ratios aliases oracle storage and
// is only valid until the next ratios call.
type expOracle interface {
	// init installs the starting dual vector.
	init(x []float64) error
	// update informs the oracle that x[b[j]] was multiplied by mults[j]
	// (each > 1); x is the post-update vector.
	update(b []int, mults []float64, x []float64) error
	// ratios returns rᵢ for all i plus spectral side information.
	ratios() ([]float64, oracleInfo, error)
	// lambdaMaxPsi returns a high-accuracy estimate of λ_max(Ψ) for the
	// current x (used for certificates, so it must be trustworthy).
	lambdaMaxPsi() (float64, error)
	// lambdaMaxAt returns LambdaMaxPsi(set, x) bit for bit for any x,
	// on the oracle's workspace and scratch: once warm it allocates
	// nothing. It leaves the oracle's own x alone and may run before
	// init (warm starts and mixed caps do).
	lambdaMaxAt(x []float64) (float64, error)
	// probability returns the dense density matrix P from the most
	// recent ratios() call, or nil if the representation does not
	// materialize it (factored path).
	probability() *matrix.Dense
	// release returns every workspace buffer the oracle holds to the
	// pools; the oracle must not be used afterwards. The decision run
	// calls it at finish so a workspace shared across sequential calls
	// serves every call after the first without a single pool miss.
	release()
}

// oracleInfo carries per-iteration spectral byproducts.
type oracleInfo struct {
	// LambdaMax is the oracle's running estimate of λ_max(Ψ) — exact on
	// the dense path, a converged Lanczos value on the factored path.
	LambdaMax float64
	// LogTrW is log Tr[exp(Ψ)], tracked in log-space.
	LogTrW float64
}

// denseOracle evaluates the primitive exactly via eigendecomposition:
// the reference implementation of the paper's per-iteration step.
// Ψ is maintained incrementally (update adds Σ δᵢAᵢ) with periodic
// rebuilds to cancel floating-point drift. All per-iteration storage
// (Ψ, the density matrix, the eigendecomposition, the ratio vector) is
// preallocated at init, so the steady-state iteration is allocation-
// free — the property the internal/core allocation-regression tests
// pin down.
//
// Between calls Ψ moves by a few small, scaled constraints, so the
// previous call's eigenbasis nearly diagonalizes the next Ψ. The first
// call after init and after every Ψ rebuild runs the full eigensolver
// (tred2 + tqli); each later call refines the kept basis V
// (eigen.RefineSymEigenInto) only until ‖offdiag VᵀΨV‖_F ≤ eta, which
// most calls meet with no sweep and without forming VᵀΨV, and runs the
// full eigensolver instead whenever that cannot finish. Such a call
// returns the exact P, λ_max and log Tr exp of a Ψ̃ with ‖Ψ̃ − Ψ‖₂ ≤ eta,
// so λ_max and log Tr exp are within eta of Ψ's. buildOracle sets eta
// to ε/4 of the run's own ε: inexact ratios of the kind the paper's
// Theorem 4.1 oracle uses too, whose values are only (1±ε)-accurate.
// P is still a trace-1 PSD matrix, which is all the upper bound's
// certificate needs, and the certificates (lambdaMaxPsi, lambdaMaxAt,
// VerifyDual) stay on the full eigensolver, so every certified bound
// stays exact.
//
// On a diagonal set (a positive LP) Ψ and P are diagonal, so the oracle
// keeps only their diagonals (psiD, pD) and computes every value the
// eigensolver route would, bit for bit, in O(n·m): tred2 leaves d =
// diag(Ψ) with a zero subdiagonal, tqli makes no rotation, the sorted
// basis is a 0/1 permutation, and every off-diagonal term the
// congruence, trace and dot kernels add is a signed zero that leaves
// their +0-started sums unchanged.
type denseOracle struct {
	set *DenseSet
	ws  *work.Workspace
	x   []float64
	psi *matrix.Dense
	p   *matrix.Dense // last density matrix
	// psiD and pD are the diagonals of Ψ and P on a diagonal set, where
	// psi stays nil and p is only written by probability.
	psiD, pD []float64
	r        []float64 // ratio buffer returned by ratios
	// coeffs is the scaled-x scratch of the periodic Ψ rebuild.
	coeffs []float64
	// dec is the last eigendecomposition of Ψ. After a warm call its
	// values follow the basis's column order and are not sorted.
	dec eigen.Decomposition
	// warm reports that dec.Vectors is an eigenbasis of a Ψ that differs
	// from the current one only by updates, so the next ratios call may
	// refine it; rebuild clears it.
	warm bool
	// bm holds B = VᵀΨV for the warm route.
	bm *matrix.Dense
	// eta is the warm route's stopping rule: ‖offdiag VᵀΨV‖_F ≤ eta.
	eta float64
	// sweeps counts the warm route's Jacobi sweeps and shortcuts its
	// calls that met eta without forming B (tests and benchmarks read
	// them).
	sweeps, shortcuts int
	// updatesSinceRebuild triggers a fresh Ψ = Σ xᵢAᵢ rebuild.
	updatesSinceRebuild int
	st                  *parallel.Stats
	// ph, when non-nil, accumulates the expm/eigendecomposition share of
	// the oracle's time (SolveStats.ExpmNS).
	ph *SolveStats
}

const denseRebuildPeriod = 256

// newDenseOracle returns a dense oracle whose warm route stops once the
// kept basis diagonalizes Ψ to within eta (see denseOracle).
func newDenseOracle(set *DenseSet, eta float64, st *parallel.Stats, ws *work.Workspace) *denseOracle {
	return &denseOracle{set: set, eta: eta, st: st, ws: ws}
}

func (o *denseOracle) init(x []float64) error {
	if len(x) != o.set.N() {
		return fmt.Errorf("core: dense oracle: x has %d entries, want %d", len(x), o.set.N())
	}
	o.x = x
	m := o.set.m
	if o.r == nil {
		o.r = o.ws.Vec(o.set.N())
		o.coeffs = o.ws.Vec(o.set.N())
		if o.set.diag != nil {
			o.psiD = o.ws.Vec(m)
			o.pD = o.ws.Vec(m)
		} else {
			o.psi = o.ws.Mat(m, m)
			o.p = o.ws.Mat(m, m)
			o.bm = o.ws.Mat(m, m)
		}
	}
	o.rebuild()
	return nil
}

func (o *denseOracle) rebuild() {
	if o.psiD != nil {
		o.set.psiDiagInto(o.psiD, o.x, o.coeffs)
	} else {
		o.set.psiDenseInto(o.psi, o.x, o.coeffs)
	}
	o.updatesSinceRebuild = 0
	o.warm = false
}

func (o *denseOracle) update(b []int, mults []float64, x []float64) error {
	o.x = x
	o.updatesSinceRebuild++
	if o.updatesSinceRebuild >= denseRebuildPeriod {
		o.rebuild()
		return nil
	}
	// δᵢ = x_newᵢ − x_oldᵢ = x_newᵢ·(1 − 1/multᵢ), added to Ψ up to four
	// constraints per pass, each entry in b order.
	s := o.coeffs[:len(b)]
	for j, i := range b {
		f := 1 - 1/mults[j]
		s[j] = o.set.scale * x[i] * f
	}
	m := o.set.m
	if o.psiD != nil {
		// AXPYMany's additions on the diagonal, each entry in b order.
		for j, i := range b {
			row := o.set.diag[i*m : i*m+m][:len(o.psiD)]
			for k, v := range row {
				o.psiD[k] += s[j] * v
			}
		}
		o.st.Add(int64(len(b))*int64(m), parallel.Log2(len(b)+1))
		return nil
	}
	matrix.AXPYMany(o.psi, s, o.set.A, b)
	o.st.Add(int64(len(b))*int64(m)*int64(m), parallel.Log2(len(b)+1))
	return nil
}

func (o *denseOracle) ratios() ([]float64, oracleInfo, error) {
	if o.psiD != nil {
		return o.diagRatios()
	}
	var mark time.Time
	if o.ph != nil {
		mark = time.Now()
	}
	lmax, logTr, err := o.expPsi()
	if err != nil {
		return nil, oracleInfo{}, err
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	n := o.set.N()
	m := o.set.m
	matrix.DotMany(o.r, o.set.A, o.set.scale, o.p)
	// The n length-m² dot products.
	o.st.Add(int64(2*n)*int64(m)*int64(m), parallel.Log2(m))
	return o.r, oracleInfo{LambdaMax: lmax, LogTrW: logTr}, nil
}

// expPsi writes P = exp(Ψ)/Tr exp(Ψ) into o.p and returns λ_max(Ψ) and
// log Tr exp(Ψ): by the warm route when the kept basis allows it,
// otherwise (or when the warm route cannot finish) by the full
// eigensolver, which returns its usual error or answer.
func (o *denseOracle) expPsi() (lmax, logTr float64, err error) {
	m := o.set.m
	m64, lg := int64(m), parallel.Log2(m)
	if o.warm {
		// o.p is free until the exponential lands in it: it holds Ψ·V.
		sweeps, formed, ok := eigen.RefineSymEigenInto(o.psi, &o.dec, o.bm, o.p, o.eta)
		o.sweeps += sweeps
		if ok && !formed {
			o.shortcuts++
		}
		o.st.Add(eigen.RefineCost(m, sweeps, formed))
		if ok {
			lmax, logTr, err = expm.NormalizedExpEigInto(o.ws, &o.dec, o.p)
			if err == nil {
				// The congruence V·diag(w)·Vᵀ and its trace.
				o.st.Add(2*m64*m64*m64+m64, 2*lg)
				return lmax, logTr, nil
			}
		}
	}
	lmax, logTr, err = expm.NormalizedExpSymInto(o.ws, o.psi, &o.dec, o.p)
	// The eigendecomposition with its congruence.
	o.st.Add(9*m64*m64*m64, m64*lg)
	o.warm = err == nil
	return lmax, logTr, err
}

// diagRatios is ratios on a diagonal set. Each value is computed by the
// operations, in the order, that NormalizedExpSymInto and DotMany use
// on the dense Ψ: λ_max is the first strictly largest entry (sortDesc's
// Values[0]), wₖ = exp(Ψₖ − λ_max), tr = Σₖ wₖ in index order (≥ 1, so
// never degenerate), pₖ = wₖ·(1/tr) and rᵢ = scale·Σₖ aᵢₖ·pₖ.
func (o *denseOracle) diagRatios() ([]float64, oracleInfo, error) {
	var mark time.Time
	if o.ph != nil {
		mark = time.Now()
	}
	psi, w := o.psiD, o.pD[:len(o.psiD)]
	lmax := psi[0]
	for _, v := range psi {
		if !(math.Abs(v) <= math.MaxFloat64) {
			return nil, oracleInfo{}, o.denseError()
		}
		if v > lmax {
			lmax = v
		}
	}
	tr := 0.0
	for k, v := range psi {
		e := math.Exp(v - lmax)
		w[k] = e
		tr += e
	}
	inv := 1 / tr
	for k := range w {
		w[k] *= inv
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	n, m := o.set.N(), o.set.m
	for i := range o.r[:n] {
		a := o.set.diag[i*m : i*m+m][:len(w)]
		var s float64
		for k, v := range w {
			s += a[k] * v
		}
		o.r[i] = o.set.scale * s
	}
	// Analytic cost: n length-m dots plus four O(m) passes (max, exp,
	// trace, normalize); the depth is the max, trace and dot
	// reductions', log₂m each.
	o.st.Add(int64(2*n)*int64(m)+int64(4*m), 3*parallel.Log2(m))
	return o.r, oracleInfo{LambdaMax: lmax, LogTrW: lmax + math.Log(tr)}, nil
}

// denseError returns the error the eigensolver route gives for the
// current Ψ, which has a non-finite diagonal entry: the dense call on
// the materialized Ψ, which rejects any such entry, so diagonal and
// dense sets fail identically.
func (o *denseOracle) denseError() error {
	m := o.set.m
	psi, p := o.ws.Mat(m, m), o.ws.Mat(m, m)
	psi.Zero()
	for k, v := range o.psiD {
		psi.Data[k*m+k] = v
	}
	_, _, err := expm.NormalizedExpSymInto(o.ws, psi, &o.dec, p)
	o.ws.PutMat(p)
	o.ws.PutMat(psi)
	return err
}

func (o *denseOracle) lambdaMaxPsi() (float64, error) {
	// Fresh rebuild for certificate-grade accuracy.
	o.rebuild()
	if o.psiD != nil {
		// A diagonal set keeps no dense Ψ; the certificate still runs
		// the full eigensolver, on a materialized one.
		return o.set.lambdaMaxPsi(o.ws, o.x)
	}
	return eigen.LambdaMaxInto(o.ws, o.psi)
}

func (o *denseOracle) lambdaMaxAt(x []float64) (float64, error) {
	return o.set.lambdaMaxPsi(o.ws, x)
}

func (o *denseOracle) probability() *matrix.Dense {
	if o.pD == nil {
		return o.p
	}
	m := o.set.m
	if o.p == nil {
		o.p = o.ws.Mat(m, m)
		o.p.Zero()
	}
	for k, v := range o.pD {
		o.p.Data[k*m+k] = v
	}
	return o.p
}

func (o *denseOracle) release() {
	if o.r == nil {
		return
	}
	o.ws.PutVec(o.r)
	o.ws.PutVec(o.coeffs)
	if o.psiD != nil {
		o.ws.PutVec(o.psiD)
		o.ws.PutVec(o.pD)
	} else {
		o.ws.PutMat(o.psi)
		o.ws.PutMat(o.bm)
	}
	if o.p != nil {
		o.ws.PutMat(o.p)
	}
	o.psi, o.p, o.bm, o.psiD, o.pD, o.r, o.coeffs = nil, nil, nil, nil, nil, nil, nil
	o.warm = false
	if o.dec.Vectors != nil {
		o.ws.PutMat(o.dec.Vectors)
		o.ws.PutVec(o.dec.Values)
		o.dec = eigen.Decomposition{}
	}
}

// guardEps validates the accuracy parameter shared by all entry points.
func guardEps(eps float64) error {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		return fmt.Errorf("core: eps = %v out of (0, 1)", eps)
	}
	return nil
}
