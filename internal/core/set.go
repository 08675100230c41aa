// Package core implements the paper's primary contribution: the
// width-independent parallel decision procedure for positive packing
// SDPs (Algorithm 3.1, decisionPSDP), the binary-search optimizer built
// on it (Lemma 2.2), the Appendix A normalization of general positive
// SDPs, and certificate verification for both solution branches.
//
// The normalized problem the package works with is the packing SDP
//
//	maximize 1ᵀx  subject to  Σᵢ xᵢ Aᵢ ≼ I,  x ≥ 0,
//
// whose dual is the trace-normalized covering SDP of the paper's
// Figure 2. Constraints are held either densely (DenseSet) or in the
// factored form Aᵢ = QᵢQᵢᵀ (FactoredSet) that enables the nearly-linear
// work bigDotExp oracle of Theorem 4.1.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chol"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/work"
)

// ErrEmptySet indicates a constraint set with no constraints.
var ErrEmptySet = errors.New("core: constraint set has no constraints")

// ConstraintSet is the read-only view of packing constraints shared by
// both representations. A global Scale() multiplier is applied to every
// constraint, which is how the Lemma 2.2 binary search rescales the
// instance without copying it.
type ConstraintSet interface {
	// N returns the number of constraints.
	N() int
	// Dim returns the matrix dimension m.
	Dim() int
	// Trace returns Tr[Aᵢ] including the scale factor.
	Trace(i int) float64
	// Scale returns the current global multiplier.
	Scale() float64
	// WithScale returns a view of the set with the scale multiplied by s.
	WithScale(s float64) ConstraintSet
	// ApplyPsi computes out = (Σᵢ xᵢAᵢ)·in (scaled).
	ApplyPsi(x, in, out []float64)
	// NNZ returns the representation size (dense: n·m², factored and
	// sparse: total stored nonzeros q).
	NNZ() int
}

// PsiOperator extends ConstraintSet with the allocation-free operator
// primitives the exponential oracles are assembled from. Any
// representation implementing it gets the full oracle pipeline for
// free — the operator oracle (opOracle: the sketched bigDotExp of
// Theorem 4.1 and its deterministic column-exact mode) is written
// against this interface alone, so factored and general-sparse constraints
// share one decision/optimize/verify code path (and a future
// representation only has to implement these primitives). DenseSet
// deliberately does NOT implement it: the dense path's contract is the
// exact eigendecomposition oracle, and keeping it off the interface
// lets the type system reject a dense set wherever a sketched oracle
// is requested.
type PsiOperator interface {
	ConstraintSet
	// PsiCoefLen is the length of the coefficient vector LoadPsi fills.
	PsiCoefLen() int
	// LoadPsi writes into coef (length PsiCoefLen()) the coefficients
	// of Ψ(x) = Scale()·Σᵢ xᵢAᵢ that ApplyPsiBlock reads: the per-call
	// load, after which every apply costs one multiply-add per stored
	// entry and vector.
	LoadPsi(x, coef []float64)
	// PsiScratchLen is the per-vector scratch length ApplyPsiBlock
	// requires.
	PsiScratchLen() int
	// ApplyPsiBlock computes out = Ψ·in for the loaded coef over a
	// block of k vectors stored interleaved (entry i of vector c at
	// in[i·k+c], likewise out), with scratch tmp of length
	// k·PsiScratchLen(): the one allocation-free product per Taylor
	// term that advances the oracles' k ExpMV chains in lockstep, and
	// the k = 1 Ψ·v of Lanczos. Each vector's result must be bitwise
	// what ApplyPsi returns for it alone.
	ApplyPsiBlock(coef, in, out, tmp []float64, k int)
	// ExpDots writes r[i] = Scale()·Σ_rows s_rᵀ·Aᵢ·s_r for the dense
	// row-block matrix s — the unnormalized bigDotExp numerators
	// Aᵢ • SᵀS (S = rows of s through exp(Ψ/2)). Each r[i] must be a
	// deterministic block reduction; r must not alias s.
	ExpDots(r []float64, s *matrix.Dense)
}

// DenseSet holds constraints as dense symmetric PSD matrices.
type DenseSet struct {
	A      []*matrix.Dense
	m      int
	scale  float64
	traces []float64
	// diag, when every Aᵢ is diagonal (a positive LP), packs the
	// diagonals n×m: row i is diag(Aᵢ). The dense oracle then keeps Ψ
	// as a length-m diagonal and needs no eigensolver.
	diag []float64
}

// NewDenseSet validates and wraps a list of symmetric m-by-m matrices.
// Symmetry is always checked; positive semidefiniteness is the caller's
// responsibility (use ValidatePSD for an explicit check — it costs one
// eigendecomposition per constraint). The matrices must not change
// afterwards: the set caches their traces and, when every off-diagonal
// entry is exactly zero, their diagonals.
func NewDenseSet(a []*matrix.Dense) (*DenseSet, error) {
	if len(a) == 0 {
		return nil, ErrEmptySet
	}
	m := a[0].R
	traces := make([]float64, len(a))
	diagonal := true
	for i, ai := range a {
		if ai.R != m || ai.C != m {
			return nil, fmt.Errorf("core: constraint %d is %dx%d, want %dx%d", i, ai.R, ai.C, m, m)
		}
		if ai.HasNaN() {
			return nil, fmt.Errorf("core: constraint %d contains NaN/Inf", i)
		}
		tol := 1e-8 * math.Max(1, ai.MaxAbs())
		if !ai.IsSymmetric(tol) {
			return nil, fmt.Errorf("core: constraint %d is not symmetric", i)
		}
		traces[i] = ai.Trace()
		if traces[i] < 0 {
			return nil, fmt.Errorf("core: constraint %d has negative trace %v (not PSD)", i, traces[i])
		}
		diagonal = diagonal && offDiagZero(ai)
	}
	s := &DenseSet{A: a, m: m, scale: 1, traces: traces}
	if diagonal {
		s.diag = make([]float64, len(a)*m)
		for i, ai := range a {
			for k := 0; k < m; k++ {
				s.diag[i*m+k] = ai.Data[k*m+k]
			}
		}
	}
	return s, nil
}

// offDiagZero reports whether every off-diagonal entry of the square
// matrix a is exactly zero (either sign).
func offDiagZero(a *matrix.Dense) bool {
	n := a.R
	for j := 0; j < n; j++ {
		row := a.Data[j*n : j*n+n]
		for k, v := range row {
			if v != 0 && k != j {
				return false
			}
		}
	}
	return true
}

// N returns the number of constraints.
func (s *DenseSet) N() int { return len(s.A) }

// Dim returns the matrix dimension m.
func (s *DenseSet) Dim() int { return s.m }

// Trace returns the scaled trace of constraint i.
func (s *DenseSet) Trace(i int) float64 { return s.scale * s.traces[i] }

// Scale returns the global multiplier.
func (s *DenseSet) Scale() float64 { return s.scale }

// WithScale returns a view with the scale multiplied by f.
func (s *DenseSet) WithScale(f float64) ConstraintSet {
	c := *s
	c.scale *= f
	return &c
}

// NNZ returns n·m², the dense representation size.
func (s *DenseSet) NNZ() int { return len(s.A) * s.m * s.m }

// ApplyPsi computes out = (Σᵢ xᵢAᵢ)·in with the scale applied.
func (s *DenseSet) ApplyPsi(x, in, out []float64) {
	s.applyPsiTmp(x, in, out, make([]float64, s.m))
}

// applyPsiTmp is ApplyPsi with caller scratch (length m), the
// allocation-free form the workspace-threaded oracles call.
func (s *DenseSet) applyPsiTmp(x, in, out, tmp []float64) {
	for j := range out {
		out[j] = 0
	}
	for i, ai := range s.A {
		if x[i] == 0 {
			continue
		}
		ai.MulVecTo(tmp, in)
		matrix.VecAXPY(out, s.scale*x[i], tmp)
	}
}

// psiDenseInto materializes Ψ into psi using coeffs (length n) as
// scratch: the dense oracle's periodic rebuild without allocations.
func (s *DenseSet) psiDenseInto(psi *matrix.Dense, x, coeffs []float64) {
	matrix.VecScale(coeffs, s.scale, x)
	matrix.LinComb(psi, coeffs, s.A)
}

// psiDiagInto is psiDenseInto on a diagonal set: psi (length m) gets
// diag(Ψ), each entry summed over i in LinComb's order with the same
// zero-coefficient skip, so it is bitwise the dense Ψ's diagonal.
func (s *DenseSet) psiDiagInto(psi, x, coeffs []float64) {
	matrix.VecScale(coeffs, s.scale, x)
	clear(psi)
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		row := s.diag[i*s.m : i*s.m+s.m][:len(psi)]
		for k, v := range row {
			psi[k] += c * v
		}
	}
}

// ValidatePSD checks every constraint for positive semidefiniteness via
// pivoted Cholesky (errors identify the offending index). One workspace
// serves the whole batch, so the per-pivot column scratch is allocated
// once, not once per constraint.
func (s *DenseSet) ValidatePSD(tol float64) error {
	ws := work.New()
	for i, ai := range s.A {
		if _, _, err := chol.PivotedCholeskyWS(ws, ai, tol); err != nil {
			return fmt.Errorf("core: constraint %d: %w", i, err)
		}
	}
	return nil
}

// Factorize converts the set to factored form Aᵢ = QᵢQᵢᵀ using pivoted
// Cholesky — the preprocessing step the paper prescribes for input not
// already given prefactored. The current scale is baked into the
// factors.
func (s *DenseSet) Factorize(tol float64) (*FactoredSet, error) {
	qs := make([]*sparse.CSC, len(s.A))
	ws := work.New()
	for i, ai := range s.A {
		q, _, err := chol.PivotedCholeskyWS(ws, ai, tol)
		if err != nil {
			return nil, fmt.Errorf("core: factorizing constraint %d: %w", i, err)
		}
		qq := sparse.CSCFromDense(q, 0)
		if s.scale != 1 {
			qq = qq.Scale(math.Sqrt(s.scale))
		}
		qs[i] = qq
	}
	return NewFactoredSet(qs)
}

// FactoredSet holds constraints in factored form Aᵢ = QᵢQᵢᵀ with sparse
// factors — the representation of Theorem 4.1 whose total nonzero count
// q drives the nearly-linear work bound.
type FactoredSet struct {
	Q      []*sparse.CSC
	m      int
	scale  float64
	traces []float64
	nnz    int
	// Flattened view: all factor columns concatenated, with col2con
	// mapping each flat column to its constraint. Ψ·v is then two O(q)
	// sparse passes.
	flat    *sparse.CSC
	col2con []int
}

// NewFactoredSet validates and wraps the factors. All Qᵢ must share the
// row dimension m.
func NewFactoredSet(q []*sparse.CSC) (*FactoredSet, error) {
	if len(q) == 0 {
		return nil, ErrEmptySet
	}
	m := q[0].R
	traces := make([]float64, len(q))
	nnz := 0
	var trips []sparse.Triplet
	var col2con []int
	colBase := 0
	for i, qi := range q {
		if qi.R != m {
			return nil, fmt.Errorf("core: factor %d has %d rows, want %d", i, qi.R, m)
		}
		traces[i] = qi.GramTrace()
		nnz += qi.NNZ()
		for j := 0; j < qi.C; j++ {
			for k := qi.ColPtr[j]; k < qi.ColPtr[j+1]; k++ {
				trips = append(trips, sparse.Triplet{Row: qi.Row[k], Col: colBase + j, Val: qi.Val[k]})
			}
			col2con = append(col2con, i)
		}
		colBase += qi.C
	}
	flat, err := sparse.NewCSC(m, max(colBase, 1), trips)
	if err != nil {
		return nil, err
	}
	return &FactoredSet{Q: q, m: m, scale: 1, traces: traces, nnz: nnz, flat: flat, col2con: col2con}, nil
}

// N returns the number of constraints.
func (s *FactoredSet) N() int { return len(s.Q) }

// Dim returns the matrix dimension m.
func (s *FactoredSet) Dim() int { return s.m }

// Trace returns the scaled trace Tr[Aᵢ] = scale·‖Qᵢ‖_F².
func (s *FactoredSet) Trace(i int) float64 { return s.scale * s.traces[i] }

// Scale returns the global multiplier.
func (s *FactoredSet) Scale() float64 { return s.scale }

// WithScale returns a view with the scale multiplied by f.
func (s *FactoredSet) WithScale(f float64) ConstraintSet {
	c := *s
	c.scale *= f
	return &c
}

// NNZ returns q, the total nonzeros across factors.
func (s *FactoredSet) NNZ() int { return s.nnz }

// ApplyPsi computes out = (Σᵢ xᵢ QᵢQᵢᵀ)·in (scaled) in O(q) work via the
// flattened factor matrix: the per-column products Qᵀin, each scaled by
// its constraint's coefficient, then one Q·(scaled Qᵀin) pass.
func (s *FactoredSet) ApplyPsi(x, in, out []float64) {
	tmp := make([]float64, s.flat.C)
	s.flat.TMulVecInto(tmp, in) // Qᵀin per flat column
	for c := range tmp {
		tmp[c] *= s.scale * x[s.col2con[c]]
	}
	for j := range out {
		out[j] = 0
	}
	s.flat.MulVecAdd(out, tmp)
}

// PsiCoefLen implements PsiOperator: one coefficient per flat column.
func (s *FactoredSet) PsiCoefLen() int { return s.flat.C }

// LoadPsi implements PsiOperator: coef[c] = Scale()·x[con] for the
// constraint con owning flat column c.
func (s *FactoredSet) LoadPsi(x, coef []float64) {
	for c, con := range s.col2con {
		coef[c] = s.scale * x[con]
	}
}

// PsiScratchLen implements PsiOperator: Qᵀ·in takes one entry per flat
// column and vector.
func (s *FactoredSet) PsiScratchLen() int { return s.flat.C }

// ApplyPsiBlock implements PsiOperator: the block forms of ApplyPsi's
// two sparse passes, Qᵀ·in scaled by coef as it is stored into tmp
// (C·k entries) and then Q·tmp, so each flat column is read once per
// pass for all k vectors.
func (s *FactoredSet) ApplyPsiBlock(coef, in, out, tmp []float64, k int) {
	tmp = tmp[:s.flat.C*k]
	s.flat.TMulBlockInto(tmp, in, coef, k)
	for j := range out {
		out[j] = 0
	}
	s.flat.MulBlockAdd(out, tmp, k)
}

// ExpDots implements PsiOperator: with Aᵢ = QᵢQᵢᵀ,
// Σ_rows s_rᵀ·Aᵢ·s_r = ‖S·Qᵢ‖_F², each constraint one O(k·nnz(Qᵢ))
// sketch dot (Theorem 4.1's per-constraint cost). The sweep forks only
// at sparse.FormGrain.
func (s *FactoredSet) ExpDots(r []float64, sk *matrix.Dense) {
	grain := sparse.FormGrain(len(s.Q), s.nnz, sk.R)
	if parallel.SerialBlock(len(s.Q), grain) {
		for i := range s.Q {
			r[i] = s.scale * s.Q[i].SketchDot(sk)
		}
		return
	}
	parallel.ForBlock(len(s.Q), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = s.scale * s.Q[i].SketchDot(sk)
		}
	})
}

// Densify materializes each constraint as a dense matrix (with the
// current scale folded in): the bridge from the fast path back to the
// exact reference path.
func (s *FactoredSet) Densify() (*DenseSet, error) {
	as := make([]*matrix.Dense, len(s.Q))
	for i, qi := range s.Q {
		d := qi.GramDense()
		if s.scale != 1 {
			matrix.Scale(d, s.scale, d)
		}
		as[i] = d
	}
	return NewDenseSet(as)
}
