package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// SparseSet holds constraints as general symmetric sparse matrices —
// the natural representation for graph and Laplacian SDPs, where a
// constraint has O(degree) nonzeros and densifying would pay O(n·m²)
// memory and matvec cost. The paper's nearly-linear work bound
// (Theorem 4.1) is stated in terms of constraint sparsity; SparseSet
// makes that cost model available without a QᵢQᵢᵀ factorization: the
// Ψ(x)·v matvec runs in O(q) over a precomputed stacked form, and the
// exp(Ψ)•Aᵢ numerators are batched quadratic forms in O(k·nnz(Aᵢ)).
type SparseSet struct {
	// A are the constraints, each a symmetric m-by-m sparse matrix.
	A      []*sparse.CSC
	m      int
	scale  float64
	traces []float64
	nnz    int
	// stack is the flattened multi-matrix form driving the O(q)
	// Σᵢ xᵢAᵢ·v accumulation.
	stack *sparse.Stack
}

// NewSparseSet validates and wraps symmetric m-by-m sparse constraint
// matrices. Symmetry is always checked (entry-wise, with the same
// relative tolerance as NewDenseSet); positive semidefiniteness is the
// caller's responsibility, exactly as on the dense path.
func NewSparseSet(a []*sparse.CSC) (*SparseSet, error) {
	if len(a) == 0 {
		return nil, ErrEmptySet
	}
	m := a[0].R
	traces := make([]float64, len(a))
	nnz := 0
	for i, ai := range a {
		if ai.R != m || ai.C != m {
			return nil, fmt.Errorf("core: sparse constraint %d is %dx%d, want %dx%d", i, ai.R, ai.C, m, m)
		}
		if ai.HasNonFinite() {
			return nil, fmt.Errorf("core: sparse constraint %d contains NaN/Inf", i)
		}
		tol := 1e-8 * math.Max(1, ai.MaxAbs())
		if !ai.IsSymmetric(tol) {
			return nil, fmt.Errorf("core: sparse constraint %d is not symmetric", i)
		}
		traces[i] = ai.DiagSum()
		if traces[i] < 0 {
			return nil, fmt.Errorf("core: sparse constraint %d has negative trace %v (not PSD)", i, traces[i])
		}
		nnz += ai.NNZ()
	}
	stack, err := sparse.NewStack(a)
	if err != nil {
		return nil, err
	}
	return &SparseSet{A: a, m: m, scale: 1, traces: traces, nnz: nnz, stack: stack}, nil
}

// N returns the number of constraints.
func (s *SparseSet) N() int { return len(s.A) }

// Dim returns the matrix dimension m.
func (s *SparseSet) Dim() int { return s.m }

// Trace returns the scaled trace of constraint i.
func (s *SparseSet) Trace(i int) float64 { return s.scale * s.traces[i] }

// Scale returns the global multiplier.
func (s *SparseSet) Scale() float64 { return s.scale }

// WithScale returns a view with the scale multiplied by f.
func (s *SparseSet) WithScale(f float64) ConstraintSet {
	c := *s
	c.scale *= f
	return &c
}

// NNZ returns q, the total stored nonzeros across constraints.
func (s *SparseSet) NNZ() int { return s.nnz }

// ApplyPsi computes out = (Σᵢ xᵢAᵢ)·in (scaled) in O(q) work: the
// scaled coefficients, then one stacked pass.
func (s *SparseSet) ApplyPsi(x, in, out []float64) {
	tmp := make([]float64, len(x))
	matrix.VecScale(tmp, s.scale, x)
	s.stack.AccumulateScaled(out, tmp, in)
}

// PsiCoefLen implements PsiOperator: one coefficient per stacked entry.
func (s *SparseSet) PsiCoefLen() int { return s.stack.NNZ() }

// LoadPsi implements PsiOperator: coef[p] = Val[p]·(Scale()·x[Con[p]])
// for every stacked entry p, the weight ApplyPsi forms on every pass.
func (s *SparseSet) LoadPsi(x, coef []float64) {
	st := s.stack
	for p, con := range st.Con {
		coef[p] = st.Val[p] * (s.scale * x[con])
	}
}

// PsiScratchLen implements PsiOperator: the stacked pass needs none.
func (s *SparseSet) PsiScratchLen() int { return 0 }

// ApplyPsiBlock implements PsiOperator: one stacked O(q) pass
// accumulates Ψ·v for all k interleaved vectors.
func (s *SparseSet) ApplyPsiBlock(coef, in, out, _ []float64, k int) {
	s.stack.ApplyCoefBlock(out, coef, in, k)
}

// ExpDots implements PsiOperator: r[i] = scale·Σ_rows s_rᵀ·Aᵢ·s_r, the
// batched per-constraint quadratic forms — O(k·nnz(Aᵢ)) each, exactly
// the sparsity-proportional cost the width-independent analysis
// charges. The sweep forks only at sparse.FormGrain.
func (s *SparseSet) ExpDots(r []float64, sk *matrix.Dense) {
	grain := sparse.FormGrain(len(s.A), s.nnz, sk.R)
	if parallel.SerialBlock(len(s.A), grain) {
		for i := range s.A {
			r[i] = s.scale * s.A[i].QuadRows(sk)
		}
		return
	}
	parallel.ForBlock(len(s.A), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = s.scale * s.A[i].QuadRows(sk)
		}
	})
}

// Densify materializes each constraint as a dense matrix with the
// current scale folded in: the bridge to the exact reference path for
// cross-representation checks.
func (s *SparseSet) Densify() (*DenseSet, error) {
	as := make([]*matrix.Dense, len(s.A))
	for i, ai := range s.A {
		d := ai.ToDense()
		if s.scale != 1 {
			matrix.Scale(d, s.scale, d)
		}
		as[i] = d
	}
	return NewDenseSet(as)
}
