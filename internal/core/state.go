package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// DecisionState is the resumable state of one Algorithm 3.1 run: the
// dual iterate, the step index, and the per-run certificate bookkeeping
// the stepper accumulates (ratio averages, best dual snapshot, spectral
// high-water mark). The MMW dynamics keep everything else implicit in
// the constraint set and the options, so this snapshot is all a solver
// needs to either continue an interrupted run on the same instance
// (ResumeDecisionPSDP) or warm-start a run on a perturbed instance
// (Options.WarmStart). The struct is plain data and JSON-serializable,
// so serving layers can store and ship it.
type DecisionState struct {
	// N and M echo the instance shape the state was captured from; a
	// mismatching shape makes the state unusable for a target set.
	N int `json:"n"`
	M int `json:"m"`
	// Eps is the accuracy of the generating run.
	Eps float64 `json:"eps"`
	// T is the number of iterations the generating run executed.
	T int `json:"t"`
	// X is the final dual iterate x⁽ᵀ⁾.
	X []float64 `json:"x"`
	// AvgSum[i] = Σₜ rᵢ⁽ᵗ⁾ is the unnormalized primal ratio
	// accumulator (AvgRatios·T).
	AvgSum []float64 `json:"avgSum,omitempty"`
	// BestMinR is the best min_i rᵢ⁽ᵗ⁾ seen anywhere in the run.
	BestMinR float64 `json:"bestMinR,omitempty"`
	// BestDualRatio / BestDualX / HaveDualSnap are the best dual
	// snapshot seen anywhere in the run (re-certified at finish).
	BestDualRatio float64   `json:"bestDualRatio,omitempty"`
	BestDualX     []float64 `json:"bestDualX,omitempty"`
	HaveDualSnap  bool      `json:"haveDualSnap,omitempty"`
	// MaxPsiNorm is the largest λ_max(Ψ) observed.
	MaxPsiNorm float64 `json:"maxPsiNorm,omitempty"`
	// Engine names the engine that captured the state ("mmw" or "alo";
	// "" from states captured before the engine split means "mmw"). The
	// bookkeeping semantics are engine-specific, so Resume rejects a
	// cross-engine state and WarmStart falls back to a cold start on
	// one — never a silent cross-engine restore.
	Engine string `json:"engine,omitempty"`
}

// Clone returns a deep copy of the state.
func (st *DecisionState) Clone() *DecisionState {
	if st == nil {
		return nil
	}
	c := *st
	c.X = matrix.VecClone(st.X)
	c.AvgSum = matrix.VecClone(st.AvgSum)
	c.BestDualX = matrix.VecClone(st.BestDualX)
	return &c
}

// snapshot captures the run's resumable state (deep copies: the run's
// buffers go back to the workspace after finish).
func (d *decisionRun) snapshot() *DecisionState {
	return &DecisionState{
		N:             d.n,
		M:             d.m,
		Eps:           d.eps,
		T:             d.t,
		X:             matrix.VecClone(d.x),
		AvgSum:        matrix.VecClone(d.avg),
		BestMinR:      d.bestMinR,
		BestDualRatio: d.bestDualRatio,
		BestDualX:     matrix.VecClone(d.bestDualX),
		HaveDualSnap:  d.haveDualSnap,
		MaxPsiNorm:    d.res.MaxPsiNorm,
		Engine:        d.engineName,
	}
}

// restore is the ResumeDecisionPSDP path: it reinstates the full run
// state — iterate, step index, and certificate bookkeeping — so the
// continued run behaves as if it had never stopped. The bookkeeping is
// only meaningful for the instance that generated it, so restore is
// strict: any shape or accuracy mismatch is an error, never a silent
// cold start.
func (d *decisionRun) restore(st *DecisionState) error {
	if st == nil {
		return errors.New("core: resume: nil state")
	}
	if got := legacyEngineName(st.Engine); got != d.engineName {
		return fmt.Errorf("core: resume: state was captured by engine %q, run uses engine %q (iterate dynamics and bookkeeping are engine-specific)", got, d.engineName)
	}
	if len(st.X) != d.n || st.N != d.n || st.M != d.m {
		return fmt.Errorf("core: resume: state shape (n=%d, m=%d, len(x)=%d) does not match instance (n=%d, m=%d)",
			st.N, st.M, len(st.X), d.n, d.m)
	}
	if st.Eps != d.eps {
		return fmt.Errorf("core: resume: state eps %v does not match run eps %v (bookkeeping thresholds differ)", st.Eps, d.eps)
	}
	if st.T < 0 {
		return fmt.Errorf("core: resume: negative step index %d", st.T)
	}
	for i, v := range st.X {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("core: resume: x[%d] = %v is not a valid dual value", i, v)
		}
	}
	// The average bookkeeping divides by the step index at finish, so a
	// state carrying T steps MUST carry the matching accumulator — a
	// zeroed avg with a restored t would silently deflate the primal
	// certificate's denominator-to-numerator pairing.
	if st.T > 0 && len(st.AvgSum) != d.n {
		return fmt.Errorf("core: resume: state has %d avgSum entries for %d constraints at t=%d", len(st.AvgSum), d.n, st.T)
	}
	copy(d.x, st.X)
	d.t = st.T
	if len(st.AvgSum) == d.n {
		copy(d.avg, st.AvgSum)
	}
	d.bestMinR = st.BestMinR
	d.bestDualRatio = st.BestDualRatio
	d.bestDualX = append(d.bestDualX[:0], st.BestDualX...)
	d.haveDualSnap = st.HaveDualSnap && len(st.BestDualX) == d.n
	d.res.MaxPsiNorm = st.MaxPsiNorm
	return nil
}

// applyWarmStart is the feasibility-guarded restart rule for
// Options.WarmStart: seed the iterate of a fresh run from a previous
// run's final x, on an instance that may have drifted since. The guard
// re-establishes exactly the preconditions the paper's analysis places
// on the starting point, so the warm run is a valid Algorithm 3.1 run
// with a different (better-informed) start:
//
//  1. monotone floor — every coordinate is clamped up to the cold-start
//     value x⁰ᵢ = 1/(n·Tr[Aᵢ]) (frozen coordinates keep their cold
//     values), preserving the growth-count bound behind Theorem 3.1's
//     iteration cap;
//  2. dual headroom — ‖x‖₁ is rescaled below K, so the ‖x‖₁ > K exit
//     must be re-earned on the current instance rather than inherited
//     from the state's instance;
//  3. potential envelope — λ_max(Ψ(x)) is rescaled to ≤ 1 + ε (the
//     cold start's Ψ⁰ ≼ I of Claim 3.3, up to the ε-slack the analysis
//     already carries), re-verified at certificate grade after the
//     clamp; the preserved information is the direction of x, which is
//     where the MMW iterate encodes the instance geometry.
//
// When the state cannot be made to satisfy the invariants (shape
// mismatch, poisoned values, or a perturbation so large that two
// rescale attempts fail), the run silently falls back to the cold
// start — warm starting is an accelerator, never a correctness trade.
// Returns whether the warm seed was installed.
func (d *decisionRun) applyWarmStart(st *DecisionState) bool {
	if st == nil || len(st.X) != d.n || (st.M != 0 && st.M != d.m) {
		return false
	}
	// A state captured by the other engine seeds nothing: its iterate
	// encodes that engine's dynamics, and silently transplanting it
	// would blur which engine's certificates a run's trajectory belongs
	// to. Cold fallback, reported via DecisionResult.WarmStarted=false.
	if legacyEngineName(st.Engine) != d.engineName {
		return false
	}
	xw := make([]float64, d.n)
	for i := range xw {
		if d.frozen[i] {
			xw[i] = d.x[i]
			continue
		}
		v := st.X[i]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false // poisoned state: cold start
		}
		xw[i] = math.Max(v, d.x[i])
	}
	// Invariant 2: keep ‖x‖₁ clear of the dual exit.
	if s := matrix.VecSum(xw); !(s < warmNormFrac*d.prm.K) {
		d.rescaleClamped(xw, warmNormFrac*d.prm.K/s)
	}
	// Invariant 3: restore the starting potential envelope, verified at
	// certificate grade (exact eigendecomposition or converged Lanczos).
	envelope := 1 + d.eps
	for attempt := 0; ; attempt++ {
		lam, err := d.orc.lambdaMaxAt(xw)
		if err != nil || math.IsNaN(lam) || math.IsInf(lam, 0) {
			return false
		}
		if lam <= envelope {
			break
		}
		if attempt >= 2 {
			return false // perturbation too large: cold start
		}
		// Aim slightly under the cap; the x⁰ clamp can push λ back up by
		// at most λ_max(Ψ(x⁰)) ≤ 1 over the clamped subset, which the
		// re-verification above catches.
		d.rescaleClamped(xw, (1-d.eps/4)/lam)
	}
	copy(d.x, xw)
	d.res.WarmStarted = true
	return true
}

// warmNormFrac is the fraction of K the warm-start ‖x‖₁ is rescaled
// under, leaving the dual exit to be re-earned on the new instance.
const warmNormFrac = 0.75

// rescaleClamped multiplies the unfrozen coordinates of xw by s and
// clamps them back up to the cold-start floor held in d.x.
func (d *decisionRun) rescaleClamped(xw []float64, s float64) {
	for i := range xw {
		if !d.frozen[i] {
			xw[i] = math.Max(xw[i]*s, d.x[i])
		}
	}
}

// ResumeDecisionPSDP continues an Algorithm 3.1 run from a snapshot
// taken on the same instance (Options.CaptureState fills
// DecisionResult.Final). The restored run behaves as if it had never
// stopped: iterate, step index, ratio averages, and certificate
// bookkeeping all carry over, and the iteration budget (MaxIter or the
// paper's R) counts the already-executed steps. The state's
// bookkeeping certifies only the instance that generated it, so set
// must be that instance; shape or eps mismatches are errors. For a
// perturbed instance use Options.WarmStart instead, which transfers
// only the iterate under a feasibility guard.
func ResumeDecisionPSDP(set ConstraintSet, eps float64, st *DecisionState, opts Options) (*DecisionResult, error) {
	if st == nil {
		return nil, errors.New("core: ResumeDecisionPSDP: nil state")
	}
	if opts.WarmStart != nil {
		return nil, errors.New("core: ResumeDecisionPSDP: cannot combine WarmStart with resume")
	}
	opts.continueFrom = st
	return DecisionPSDP(set, eps, opts)
}
