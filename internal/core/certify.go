package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/eigen"
	"repro/internal/matrix"
	"repro/internal/work"
)

// DualCertificate is the verification report for a packing vector.
type DualCertificate struct {
	// LambdaMax is λ_max(Σ xᵢAᵢ), computed independently of the solver.
	LambdaMax float64
	// Value is 1ᵀx.
	Value float64
	// Feasible is LambdaMax ≤ 1 + Tol.
	Feasible bool
	// Tol is the slack used for the feasibility call.
	Tol float64
}

// VerifyDual independently checks a packing vector x against the set:
// exact dense eigendecomposition when the set is dense, converged
// Lanczos when factored.
func VerifyDual(set ConstraintSet, x []float64, tol float64) (*DualCertificate, error) {
	if len(x) != set.N() {
		return nil, fmt.Errorf("core: VerifyDual: x has %d entries, want %d", len(x), set.N())
	}
	for i, v := range x {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("core: VerifyDual: x[%d] = %v is not a valid dual value", i, v)
		}
	}
	if tol <= 0 {
		tol = 1e-8
	}
	lam, err := LambdaMaxPsi(set, x)
	if err != nil {
		return nil, err
	}
	return &DualCertificate{
		LambdaMax: lam,
		Value:     matrix.VecSum(x),
		Feasible:  lam <= 1+tol,
		Tol:       tol,
	}, nil
}

// LambdaMaxPsi computes a certificate-grade λ_max(Σ xᵢAᵢ) for any set
// and vector, independent of any oracle state: exact eigendecomposition
// for dense sets, converged fully-reorthogonalized Lanczos otherwise.
// An operator set loads Ψ(x) once into one scratch buffer, so the
// Lanczos applies allocate nothing; their results are bitwise
// ApplyPsi's. A run's oracle computes the same bits on its own
// workspace (expOracle.lambdaMaxAt).
func LambdaMaxPsi(set ConstraintSet, x []float64) (float64, error) {
	apply := func(in, out []float64) { set.ApplyPsi(x, in, out) }
	switch s := set.(type) {
	case *DenseSet:
		return s.lambdaMaxPsi(nil, x)
	case PsiOperator:
		nc := s.PsiCoefLen()
		buf := make([]float64, nc+s.PsiScratchLen())
		coef, tmp := buf[:nc], buf[nc:]
		s.LoadPsi(x, coef)
		apply = func(in, out []float64) { s.ApplyPsiBlock(coef, in, out, tmp, 1) }
	}
	return eigen.LanczosMax(apply, set.Dim(), eigen.LanczosOpts{
		MaxIter: certLanczosIter,
		Tol:     certLanczosTol,
		Rng:     rand.New(rand.NewPCG(certSeed1, certSeed2)),
	})
}

// lambdaMaxPsi is LambdaMaxPsi on a dense set: the top eigenvalue of
// Ψ(x), with Ψ, its coefficients and the eigenvalue scratch drawn from
// ws (which may be nil).
func (s *DenseSet) lambdaMaxPsi(ws *work.Workspace, x []float64) (float64, error) {
	psi, coeffs := ws.Mat(s.m, s.m), ws.Vec(len(x))
	s.psiDenseInto(psi, x, coeffs)
	lam, err := eigen.LambdaMaxInto(ws, psi)
	ws.PutVec(coeffs)
	ws.PutMat(psi)
	return lam, err
}

// The certificate-grade Lanczos of LambdaMaxPsi: Krylov depth,
// tolerance and start-vector stream. The operator oracles run the same
// budget for their own certificates.
const (
	certLanczosIter      = 256
	certLanczosTol       = 1e-12
	certSeed1, certSeed2 = 0xcafe, 0xf00d
)

// PrimalCertificate is the verification report for a covering matrix.
type PrimalCertificate struct {
	// Trace is Tr[Y].
	Trace float64
	// MinDot is min_i Aᵢ • Y.
	MinDot float64
	// UpperBound = Trace/MinDot is the implied weak-duality bound on
	// the packing optimum (∞ when MinDot ≤ 0).
	UpperBound float64
	// PSD reports whether Y passed a PSD check.
	PSD bool
}

// VerifyPrimalDense checks a dense covering matrix Y against a dense
// set: Y ≽ 0 and the per-constraint dot products. The weak-duality
// chain 1ᵀx ≤ (Σ xᵢAᵢ)•Y/MinDot ≤ Tr[Y]/MinDot holds for every
// feasible packing x, so UpperBound certifies the optimum.
func VerifyPrimalDense(set *DenseSet, y *matrix.Dense) (*PrimalCertificate, error) {
	if y.R != set.Dim() || y.C != set.Dim() {
		return nil, fmt.Errorf("core: VerifyPrimalDense: Y is %dx%d, want %dx%d", y.R, y.C, set.Dim(), set.Dim())
	}
	psd, err := eigen.IsPSD(y, 1e-9)
	if err != nil {
		return nil, err
	}
	minDot := math.Inf(1)
	for i := 0; i < set.N(); i++ {
		d := set.Scale() * matrix.Dot(set.A[i], y)
		if d < minDot {
			minDot = d
		}
	}
	cert := &PrimalCertificate{Trace: y.Trace(), MinDot: minDot, PSD: psd}
	if minDot > 0 {
		cert.UpperBound = cert.Trace / minDot
	} else {
		cert.UpperBound = math.Inf(1)
	}
	return cert, nil
}
