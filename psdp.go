// Package psdp is a width-independent parallel solver for positive
// semidefinite programs, reproducing Peng, Tangwongsan & Zhang,
// "Faster and Simpler Width-Independent Parallel Algorithms for
// Positive Semidefinite Programming" (SPAA 2012, arXiv:1201.5135).
//
// # Problem
//
// A positive SDP in the paper's primal form (1.1) is
//
//	minimize    C • Y
//	subject to  Aᵢ • Y ≥ bᵢ,   i = 1..n,    Y ≽ 0,
//
// with C, Aᵢ symmetric positive semidefinite and bᵢ ≥ 0. Its normalized
// dual is the packing SDP
//
//	maximize 1ᵀx  subject to  Σᵢ xᵢ Aᵢ ≼ I,  x ≥ 0,
//
// and by strong duality the two optima coincide. The solver produces a
// (1+ε)-approximation with explicitly verified certificates on both
// sides, in O(ε⁻³ log² n) iterations per decision call and O(log n)
// decision calls, independent of the instance's width parameter.
//
// # Entry points
//
//   - NewDenseSet / NewFactoredSet / NewSparseSet wrap packing
//     constraints; factored sets (Aᵢ = QᵢQᵢᵀ with sparse Qᵢ) and
//     general sparse sets (symmetric sparse Aᵢ, e.g. graph Laplacians)
//     enable the nearly-linear-work sketched oracle of the paper's
//     Theorem 4.1 through one shared operator pipeline (PsiOperator).
//   - Decision runs one ε-decision call (Algorithm 3.1).
//   - Maximize runs the full optimizer (binary search of Lemma 2.2).
//   - Solve handles a general positive SDP end to end (Appendix A
//     normalization + optimizer).
//   - VerifyDual / VerifyPrimalDense re-check any witness independently.
//
// All randomness (sketches, Lanczos starts) derives from Options.Seed,
// and all parallel reductions use fixed block trees, so results are
// reproducible at any GOMAXPROCS.
package psdp

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/mixed"
	"repro/internal/sparse"
	"repro/internal/work"
)

// Re-exported types. The implementation lives in internal/core; these
// aliases are the supported public surface.
type (
	// Dense is a dense row-major matrix (entry (i,j) at Data[i*C+j]).
	Dense = matrix.Dense
	// Triplet is an explicit sparse entry.
	Triplet = sparse.Triplet
	// CSC is a compressed sparse column matrix, the factor format.
	CSC = sparse.CSC
	// ConstraintSet is a packing constraint collection (dense, factored,
	// or sparse).
	ConstraintSet = core.ConstraintSet
	// PsiOperator is the representation-agnostic operator view a
	// constraint set exposes to the oracle pipeline: a per-call load of
	// Ψ(x)'s coefficients, an O(nnz) Ψ(x)·V over a block of vectors,
	// and batched quadratic forms. FactoredSet and SparseSet implement
	// it and share one oracle code path.
	PsiOperator = core.PsiOperator
	// DenseSet holds constraints as dense PSD matrices.
	DenseSet = core.DenseSet
	// FactoredSet holds constraints as Aᵢ = QᵢQᵢᵀ.
	FactoredSet = core.FactoredSet
	// SparseSet holds constraints as general symmetric sparse matrices
	// (the natural form for graph/Laplacian SDPs).
	SparseSet = core.SparseSet
	// Options configure the solver (oracle choice, seeds, limits).
	Options = core.Options
	// SolveStats accumulates the per-phase wall-time breakdown of a
	// solve when set as Options.Phases: iterations, oracle application,
	// the expm/Lanczos primitives inside it, coordinate updates, and
	// certificate bookkeeping.
	SolveStats = core.SolveStats
	// Params are Algorithm 3.1's constants (K, α, R).
	Params = core.Params
	// DecisionResult reports one ε-decision call with certified bounds.
	DecisionResult = core.DecisionResult
	// DecisionState is a resumable snapshot of a decision run
	// (Options.CaptureState fills DecisionResult.Final): pass it to
	// Resume to continue on the same instance, or to Options.WarmStart
	// to warm-start a solve of a perturbed instance.
	DecisionState = core.DecisionState
	// Solution is the optimizer result with a certified bracket.
	Solution = core.Solution
	// Outcome labels the decision branch (dual/primal/inconclusive).
	Outcome = core.Outcome
	// Program is a general positive SDP in primal form (1.1).
	Program = core.Program
	// CoveringSolution is the end-to-end result for a Program.
	CoveringSolution = core.CoveringSolution
	// DualCertificate reports independent verification of a packing vector.
	DualCertificate = core.DualCertificate
	// PrimalCertificate reports verification of a covering matrix.
	PrimalCertificate = core.PrimalCertificate
	// OracleKind selects the per-iteration exponential primitive.
	OracleKind = core.OracleKind
	// EngineKind selects the iteration dynamics (MMW, ALO, or auto).
	EngineKind = core.EngineKind
	// Workspace is the solver's scratch-buffer arena. Set
	// Options.Workspace to reuse one across sequential solver calls so
	// every call after the first runs allocation-free in steady state;
	// leave it nil and each call manages a private workspace. A
	// Workspace is not safe for concurrent use.
	Workspace = work.Workspace
)

// NewWorkspace returns an empty solver workspace (see Workspace).
func NewWorkspace() *Workspace { return work.New() }

// Outcome and oracle constants.
const (
	OutcomeDual         = core.OutcomeDual
	OutcomePrimal       = core.OutcomePrimal
	OutcomeInconclusive = core.OutcomeInconclusive

	OracleAuto          = core.OracleAuto
	OracleDenseExact    = core.OracleDenseExact
	OracleFactoredJL    = core.OracleFactoredJL
	OracleFactoredExact = core.OracleFactoredExact

	// Engine selection for Options.Engine. EngineMMW (the default) is the
	// paper's Algorithm 3.1; EngineALO is the arXiv:1507.02259 truncated-
	// gradient engine with an O(ε⁻² log² N) iteration budget; EngineAuto
	// picks per instance (see core.ResolveEngine).
	EngineMMW  = core.EngineMMW
	EngineALO  = core.EngineALO
	EngineAuto = core.EngineAuto
)

// NewMatrix returns a zero r-by-c dense matrix.
func NewMatrix(r, c int) *Dense { return matrix.New(r, c) }

// MatrixFromRows builds a dense matrix from rows.
func MatrixFromRows(rows [][]float64) *Dense { return matrix.FromRows(rows) }

// Identity returns the n-by-n identity.
func Identity(n int) *Dense { return matrix.Identity(n) }

// Diag returns a diagonal matrix.
func Diag(d []float64) *Dense { return matrix.Diag(d) }

// NewCSC builds a sparse factor from triplets.
func NewCSC(rows, cols int, trips []Triplet) (*CSC, error) {
	return sparse.NewCSC(rows, cols, trips)
}

// NewDenseSet wraps dense symmetric PSD packing constraints.
func NewDenseSet(a []*Dense) (*DenseSet, error) { return core.NewDenseSet(a) }

// NewFactoredSet wraps factored constraints Aᵢ = QᵢQᵢᵀ.
func NewFactoredSet(q []*CSC) (*FactoredSet, error) { return core.NewFactoredSet(q) }

// NewSparseSet wraps general symmetric sparse constraints. Symmetry is
// validated; the set runs through the same operator oracles as
// factored constraints (Theorem 4.1's sketched bigDotExp and the
// deterministic exact oracle) at O(nnz)-proportional cost.
func NewSparseSet(a []*CSC) (*SparseSet, error) { return core.NewSparseSet(a) }

// ParamsFor computes Algorithm 3.1's constants for an instance shape.
func ParamsFor(n, m int, eps float64) (Params, error) { return core.ParamsFor(n, m, eps) }

// ParseEngine maps an engine name ("mmw", "alo", "auto", or "" for the
// default) to its EngineKind.
func ParseEngine(s string) (EngineKind, error) { return core.ParseEngine(s) }

// ResolveEngine resolves EngineAuto to the concrete engine the solver
// would run for an instance at accuracy eps; concrete kinds pass
// through unchanged.
func ResolveEngine(kind EngineKind, set ConstraintSet, eps float64) EngineKind {
	return core.ResolveEngine(kind, set, eps)
}

// Decision runs one ε-decision call (the paper's Algorithm 3.1,
// decisionPSDP) on the packing constraints: it returns either a
// near-feasible dual solution or a primal covering certificate, plus
// always-valid certified bounds on the packing optimum.
func Decision(set ConstraintSet, eps float64, opts Options) (*DecisionResult, error) {
	return core.DecisionPSDP(set, eps, opts)
}

// Resume continues a decision run from a snapshot taken on the SAME
// instance: the iterate, step index, and certificate bookkeeping all
// carry over, so an interrupted or iteration-capped run picks up where
// it stopped. For a perturbed instance, set Options.WarmStart instead —
// it transfers only the iterate, behind a feasibility guard that falls
// back to a cold start when the drift is too large.
func Resume(set ConstraintSet, eps float64, st *DecisionState, opts Options) (*DecisionResult, error) {
	return core.ResumeDecisionPSDP(set, eps, st, opts)
}

// Maximize approximates max{1ᵀx : Σ xᵢAᵢ ≼ I, x ≥ 0} to relative
// accuracy ε with certified bounds (the paper's Theorem 1.1 pipeline).
func Maximize(set ConstraintSet, eps float64, opts Options) (*Solution, error) {
	return core.MaximizePacking(set, eps, opts)
}

// Solve approximates a general positive SDP (normalization of
// Appendix A followed by the optimizer).
func Solve(p *Program, eps float64, opts Options) (*CoveringSolution, error) {
	return core.SolveCovering(p, eps, opts)
}

// VerifyDual independently certifies a packing vector.
func VerifyDual(set ConstraintSet, x []float64, tol float64) (*DualCertificate, error) {
	return core.VerifyDual(set, x, tol)
}

// VerifyPrimalDense independently certifies a covering matrix against a
// dense constraint set.
func VerifyPrimalDense(set *DenseSet, y *Dense) (*PrimalCertificate, error) {
	return core.VerifyPrimalDense(set, y)
}

// Mixed packing/covering extension (the paper's §5 future-work class:
// matrix packing plus diagonal covering constraints).
type (
	// MixedProblem couples packing constraints with a nonnegative
	// covering matrix C (find x ≥ 0: Σ xᵢAᵢ ≼ I and Cx ≥ 1).
	MixedProblem = mixed.Problem
	// MixedOptions configure SolveMixed.
	MixedOptions = mixed.Options
	// MixedResult reports a verified bicriteria point or inconclusive.
	MixedResult = mixed.Result
	// MixedStatus labels the mixed outcome.
	MixedStatus = mixed.Status
)

// Mixed status constants.
const (
	MixedFeasible     = mixed.StatusFeasible
	MixedInconclusive = mixed.StatusInconclusive
)

// NewMixedProblem validates and wraps a mixed packing/covering system.
func NewMixedProblem(pack ConstraintSet, cover *Dense) (*MixedProblem, error) {
	return mixed.NewProblem(pack, cover)
}

// SolveMixed searches for a verified bicriteria-feasible point of the
// mixed system: coverage ≥ 1−ε and λ_max(Σ xᵢAᵢ) ≤ 1+10ε.
func SolveMixed(p *MixedProblem, eps float64, opts MixedOptions) (*MixedResult, error) {
	return mixed.Solve(p, eps, opts)
}

// IterationInfo is the telemetry passed to Options.OnIteration.
type IterationInfo = core.IterationInfo
