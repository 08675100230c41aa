// Package mixed implements the extension the paper's conclusion (§5)
// poses as future work and attributes to Jain–Yao 2012: positive SDPs
// with a matrix packing side and DIAGONAL covering constraints,
//
//	find x ≥ 0 with  Σᵢ xᵢAᵢ ≼ I   (matrix packing)
//	            and  C·x ≥ 1       (entrywise covering, C ≥ 0, d-by-n).
//
// As the paper notes, packing conditions between diagonal matrices are
// equivalent to pointwise conditions on the diagonal entries, so this
// class is "positive covering LP constraints + one matrix packing
// constraint" — the natural first extension beyond pure packing.
//
// Solve runs on the loop every solver in internal/core shares
// (core.RunMixed): the same oracles, workspace, cancellation check and
// phase timing as Decision, with a covering step rule in place of
// Algorithm 3.1's. The rule couples the matrix soft-max packing ratios
// pᵢ = exp(Ψ)•Aᵢ/Tr[exp(Ψ)] with Young-style soft-min covering ratios
// and multiplies the coordinates whose packing cost is small relative
// to their covering benefit; a coordinate that reaches its Algorithm
// 3.1 cap xᵢ·λ_max(Aᵢ) = 1+ε is clamped there and frozen, forcing the
// remaining coverage onto coordinates with packing headroom. The
// output is always VERIFIED: Solve reports a bicriteria point
// (covering within 1−ε, packing within 1+O(ε)) only after checking
// both sides numerically, and returns StatusInconclusive otherwise —
// it never claims an unverified answer.
package mixed

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/work"
)

// Problem is a mixed packing/covering instance.
type Problem struct {
	// Pack holds the packing constraints Aᵢ (dense or factored).
	Pack core.ConstraintSet
	// Cover is the nonnegative d-by-n covering matrix (rows are
	// covering constraints over the same variables).
	Cover *matrix.Dense
}

// NewProblem validates shapes and signs.
func NewProblem(pack core.ConstraintSet, cover *matrix.Dense) (*Problem, error) {
	if pack == nil || cover == nil {
		return nil, errors.New("mixed: nil inputs")
	}
	if cover.C != pack.N() {
		return nil, fmt.Errorf("mixed: covering matrix has %d columns, want n=%d", cover.C, pack.N())
	}
	for i, v := range cover.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mixed: covering entry %d = %v invalid", i, v)
		}
	}
	// Every covering row needs at least one positive entry or the row
	// is unsatisfiable.
	for j := 0; j < cover.R; j++ {
		row := cover.Row(j)
		ok := false
		for _, v := range row {
			if v > 0 {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("mixed: covering row %d is all zero (unsatisfiable)", j)
		}
	}
	return &Problem{Pack: pack, Cover: cover}, nil
}

// Status labels the solve outcome.
type Status int

const (
	// StatusFeasible: x satisfies C·x ≥ (1−ε)·1 and λ_max(Σ xᵢAᵢ) ≤ 1+10ε,
	// both verified numerically.
	StatusFeasible Status = iota
	// StatusInconclusive: the iteration budget ran out without a
	// verified bicriteria point. The result still carries the best
	// iterate and its measured violations.
	StatusInconclusive
)

// String implements fmt.Stringer.
func (s Status) String() string {
	if s == StatusFeasible {
		return "feasible"
	}
	return "inconclusive"
}

// Result reports a mixed solve.
type Result struct {
	Status Status
	// X is the final iterate.
	X []float64
	// MinCoverage is min_j (Cx)_j (want ≥ 1−ε).
	MinCoverage float64
	// LambdaMax is λ_max(Σ xᵢAᵢ), verified (want ≤ 1+10ε).
	LambdaMax float64
	// Iterations executed.
	Iterations int
	// Capped counts the coordinates frozen at their Algorithm 3.1 cap
	// xᵢ = (1+ε)/λ_max(Aᵢ) during the run.
	Capped int
	// Engine names the dynamics that ran ("mmw" or "alo"; Auto is
	// resolved per instance before the run starts).
	Engine string
	// WarmStarted reports whether Options.WarmStart passed the
	// feasibility guard and seeded the initial iterate.
	WarmStarted bool
}

// Options configure Solve.
type Options struct {
	// MaxIter caps iterations; 0 derives the engine's budget
	// (Algorithm 3.1's R for mmw, the O(ε⁻² log² N) ALO cap for alo).
	MaxIter int
	// Seed drives factored-oracle randomness.
	Seed uint64
	// Oracle selects the packing primitive (as in core.Options).
	Oracle core.OracleKind
	// Engine selects the packing-side dynamics: core.EngineMMW (the
	// zero value — Algorithm 3.1 threshold steps), core.EngineALO
	// (truncated-gradient multiplicative steps), or core.EngineAuto
	// (resolved per instance by core.ResolveEngine, same rule as
	// Decision).
	Engine core.EngineKind
	// WarmStart, when non-nil, seeds the iterate from a previous run's
	// final X instead of the cold start — the incremental-solving hook
	// for drifted instances. The vector must have length n with finite
	// nonnegative entries or the run silently falls back to the cold
	// start (Result.WarmStarted reports which happened). Entries are
	// clamped to the cold-start floor from below and the coordinate cap
	// from above; the bicriteria verification at exit is unconditional
	// either way.
	WarmStart []float64
	// Ctx, when non-nil, is checked every iteration: cancellation stops
	// the run with an error wrapping the context error (as in
	// core.Options).
	Ctx context.Context
	// Workspace, when non-nil, supplies the scratch-buffer arena for the
	// run (as in core.Options); nil means a private one.
	Workspace *work.Workspace
	// Phases, when non-nil, accumulates the per-phase wall-time
	// breakdown and the iteration count (as in core.Options).
	Phases *core.SolveStats
}

// Solve searches for a bicriteria-feasible point of the mixed system at
// accuracy eps ∈ (0, 1).
func Solve(p *Problem, eps float64, opts Options) (*Result, error) {
	if eps <= 0 || eps >= 1 || math.IsNaN(eps) {
		return nil, fmt.Errorf("mixed: eps = %v out of (0, 1)", eps)
	}
	if p == nil || p.Pack == nil || p.Cover == nil {
		return nil, errors.New("mixed: nil problem")
	}
	// core.Options.Validate rejects what Decision rejects (a negative
	// MaxIter, unknown engine and oracle kinds).
	run, err := core.RunMixed(p.Pack, p.Cover, eps, core.Options{
		Engine:    opts.Engine,
		Oracle:    opts.Oracle,
		MaxIter:   opts.MaxIter,
		Seed:      opts.Seed,
		SketchEps: eps / 2,
		Ctx:       opts.Ctx,
		Workspace: opts.Workspace,
		Phases:    opts.Phases,
	}, opts.WarmStart)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Status:      StatusInconclusive,
		X:           run.X,
		Iterations:  run.Iterations,
		Capped:      run.Capped,
		Engine:      core.ResolveEngine(opts.Engine, p.Pack, eps).String(),
		WarmStarted: run.WarmStarted,
	}
	cx := make([]float64, p.Cover.R)
	p.Cover.MulVecTo(cx, res.X)
	res.MinCoverage = matrix.VecMin(cx)
	if res.LambdaMax, err = core.LambdaMaxPsi(p.Pack, res.X); err != nil {
		return nil, err
	}
	if res.MinCoverage >= 1-eps && res.LambdaMax <= 1+10*eps {
		res.Status = StatusFeasible
	}
	return res, nil
}
