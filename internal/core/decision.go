package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/work"
)

// Params are the constants of Algorithm 3.1:
//
//	K = (1 + ln N)/ε,  α = ε/(K(1+10ε)),  R = ⌈(32/(εα))·ln N⌉,
//
// with N = max(n, m, 2) so the MMW additive term ln(dim)/ε is absorbed
// exactly as in the paper's Lemma 3.2 (the paper writes ln n for both;
// taking the max is the safe reading). R = O(ε⁻³ log² N) is Theorem
// 3.1's iteration bound.
type Params struct {
	Eps   float64
	K     float64
	Alpha float64
	R     int
	LogN  float64
}

// ParamsFor computes the paper's constants for an instance with n
// constraints of dimension m at accuracy eps.
func ParamsFor(n, m int, eps float64) (Params, error) {
	if err := guardEps(eps); err != nil {
		return Params{}, err
	}
	if n <= 0 || m <= 0 {
		return Params{}, fmt.Errorf("core: ParamsFor(%d, %d): sizes must be positive", n, m)
	}
	logN := math.Log(float64(maxInt3(n, m, 2)))
	k := (1 + logN) / eps
	alpha := eps / (k * (1 + 10*eps))
	rf := math.Ceil(32 * logN / (eps * alpha))
	// R = O(ε⁻³ log² N) overflows int for very small ε; clamp instead of
	// wrapping negative (callers cap the iteration count anyway).
	r := math.MaxInt
	if rf < float64(math.MaxInt) {
		r = int(rf)
	}
	return Params{Eps: eps, K: k, Alpha: alpha, R: r, LogN: logN}, nil
}

// OracleKind selects the per-iteration exp(Ψ)•Aᵢ primitive.
type OracleKind int

const (
	// OracleAuto picks DenseExact for *DenseSet and FactoredJL for
	// *FactoredSet.
	OracleAuto OracleKind = iota
	// OracleDenseExact uses full eigendecompositions (reference path).
	OracleDenseExact
	// OracleFactoredJL is Theorem 4.1's sketched bigDotExp (fast path).
	OracleFactoredJL
	// OracleFactoredExact applies exp(Ψ/2) to every factor column and
	// basis vector: deterministic, for cross-validation on small inputs.
	OracleFactoredExact
)

// Options configure DecisionPSDP.
type Options struct {
	// Engine selects the iteration dynamics: EngineMMW (the zero value,
	// Algorithm 3.1), EngineALO (the 1507.02259 update rule), or
	// EngineAuto (resolved per instance by ResolveEngine). Both engines
	// share the oracles, workspaces, and certificate bookkeeping, and
	// every exit certificate is verified numerically regardless of
	// engine.
	Engine EngineKind
	// Oracle selects the primitive; OracleAuto matches the set type.
	Oracle OracleKind
	// MaxIter caps iterations; 0 means the paper's R.
	MaxIter int
	// TheoryExact disables the early certificate exits, reproducing
	// Algorithm 3.1 verbatim (loop until ‖x‖₁ > K or t = R).
	TheoryExact bool
	// EarlySlack is the primal early-exit slack: stop once
	// min_i avg_t rᵢ ≥ 1 − EarlySlack. 0 means eps/2.
	EarlySlack float64
	// SketchEps is the JL accuracy for the factored oracle; 0 means 0.2.
	SketchEps float64
	// Seed drives all randomness (sketches, Lanczos starts).
	Seed uint64
	// Stats, when non-nil, accumulates analytic work/depth.
	Stats *parallel.Stats
	// Phases, when non-nil, accumulates the per-phase wall-time
	// breakdown of the run (oracle apply, expm/Lanczos primitives,
	// coordinate updates, certificate bookkeeping) — see SolveStats.
	// The struct must not be shared across concurrent runs; sequential
	// calls (MaximizePacking) accumulate into it naturally. Capture is
	// allocation-free, so the zero-alloc steady-state contract survives
	// with phases enabled.
	Phases *SolveStats
	// TrackPrimalMatrix accumulates Y = avg_t P⁽ᵗ⁾ densely (dense
	// oracle only).
	TrackPrimalMatrix bool
	// TraceCap excludes constraints with Trace(i) > TraceCap from ever
	// being updated, implementing the Tr[Aᵢ] ≤ O(n³) cap of Lemma 2.2.
	// 0 disables.
	TraceCap float64
	// Bucketed enables the dynamic-bucketing update of Wang–Mahoney–
	// Mohan–Rao (arXiv:1511.06468), which §1.1 of the paper notes is
	// applicable to this analysis: coordinates with ratio far below the
	// 1+ε threshold take geometrically larger steps, one (1+α) factor
	// per (1+ε)-bucket of headroom. All certificates remain verified
	// numerically, so the acceleration never compromises soundness.
	// Off by default (paper-faithful single-step updates).
	Bucketed bool
	// Ctx, when non-nil, is checked every iteration: cancellation stops
	// the run with the context error. Long decision runs on large
	// factored instances become interruptible services this way.
	Ctx context.Context
	// OnIteration, when non-nil, observes every iteration. Returning
	// false stops the run early with OutcomeInconclusive (the certified
	// bounds computed so far remain valid). The callback must not
	// mutate its arguments.
	OnIteration func(IterationInfo) bool
	// WarmStart, when non-nil, seeds the run's initial iterate from a
	// previous run's final DecisionState instead of the paper's cold
	// start x⁰ᵢ = 1/(n·Tr[Aᵢ]) — the incremental-solving hook for
	// drifting instances. The state passes through a feasibility guard
	// (clamp to the cold-start floor, rescale under the dual exit and
	// the starting potential envelope; see applyWarmStart) and the run
	// silently falls back to the cold start when the guard cannot
	// re-establish the paper's starting invariants;
	// DecisionResult.WarmStarted reports which happened. All exit
	// certificates are recomputed on the current instance either way.
	WarmStart *DecisionState
	// CaptureState, when true, fills DecisionResult.Final with the
	// run's end-of-run DecisionState (deep copies), making the result
	// resumable and warm-start-able. Off by default: the snapshot costs
	// three O(n) copies at finish.
	CaptureState bool
	// continueFrom restores the full run state including certificate
	// bookkeeping — the ResumeDecisionPSDP path, only valid on the
	// instance that generated the state (unexported: the public surface
	// is the Resume function, whose doc carries that contract).
	continueFrom *DecisionState
	// Workspace, when non-nil, supplies the scratch-buffer arena for
	// the run: every per-iteration temporary (oracle ratio vectors, Ψ
	// accumulators, eigendecomposition storage, sketch rows, Lanczos
	// bases) is drawn from it, so the steady-state iteration allocates
	// nothing. Nil means the call creates a private workspace. A
	// workspace is not safe for concurrent use; share it only across
	// sequential calls (MaximizePacking threads one through all of its
	// decision calls automatically).
	Workspace *work.Workspace
}

// Validate checks the option fields for out-of-range values. The zero
// Options is valid (every field has a documented default); Validate
// rejects values that would silently misbehave — negative slacks,
// sketch accuracies outside (0, 1), NaNs. DecisionPSDP calls it on
// entry.
func (o Options) Validate() error {
	if o.Engine < EngineMMW || o.Engine > EngineAuto {
		return fmt.Errorf("core: Options.Engine = %d unknown", o.Engine)
	}
	if o.Oracle < OracleAuto || o.Oracle > OracleFactoredExact {
		return fmt.Errorf("core: Options.Oracle = %d unknown", o.Oracle)
	}
	if o.MaxIter < 0 {
		return fmt.Errorf("core: Options.MaxIter = %d must be >= 0", o.MaxIter)
	}
	if math.IsNaN(o.EarlySlack) || o.EarlySlack < 0 || o.EarlySlack >= 1 {
		return fmt.Errorf("core: Options.EarlySlack = %v out of [0, 1)", o.EarlySlack)
	}
	if math.IsNaN(o.SketchEps) || o.SketchEps < 0 || o.SketchEps >= 1 {
		return fmt.Errorf("core: Options.SketchEps = %v out of [0, 1)", o.SketchEps)
	}
	if math.IsNaN(o.TraceCap) || o.TraceCap < 0 {
		return fmt.Errorf("core: Options.TraceCap = %v must be >= 0", o.TraceCap)
	}
	return nil
}

// IterationInfo is the per-iteration telemetry passed to
// Options.OnIteration. The JSON tags define the wire shape of the
// per-iteration records emitted by the trace tooling (psdptrace -json).
type IterationInfo struct {
	// T is the 1-based iteration number.
	T int `json:"t"`
	// XNorm1 is ‖x‖₁ after the update.
	XNorm1 float64 `json:"x_norm1"`
	// LambdaMax is the oracle's λ_max(Ψ) estimate before the update.
	LambdaMax float64 `json:"lambda_max"`
	// MinRatio and MaxRatio are the extremes of rᵢ this iteration.
	MinRatio float64 `json:"min_ratio"`
	MaxRatio float64 `json:"max_ratio"`
	// Updated is |B|, the number of coordinates bumped.
	Updated int `json:"updated"`
}

// Outcome labels which branch of the ε-decision problem fired.
type Outcome int

const (
	// OutcomeDual: ‖x‖₁ exceeded K; x̂ is a near-feasible dual solution
	// (packing value ≥ (1−10ε) after scaling) — "OPT ≥ 1−O(ε)".
	OutcomeDual Outcome = iota
	// OutcomePrimal: the averaged density matrix is a covering witness —
	// "OPT ≤ 1+O(ε)".
	OutcomePrimal
	// OutcomeInconclusive: the iteration cap was reached without either
	// certificate (possible only with MaxIter < R or heavy sketch noise);
	// the certified Lower/Upper bounds are still valid.
	OutcomeInconclusive
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeDual:
		return "dual"
	case OutcomePrimal:
		return "primal"
	default:
		return "inconclusive"
	}
}

// DecisionResult is the outcome of one run of Algorithm 3.1 together
// with numerically certified bounds on the packing optimum of the
// (scaled) instance.
type DecisionResult struct {
	Outcome Outcome
	// X is the raw final dual iterate of Algorithm 3.1.
	X []float64
	// DualX = X/λ_max(Ψ) is a certified feasible packing vector:
	// Σ DualXᵢ Aᵢ ≼ I up to the λ_max estimator's accuracy.
	DualX []float64
	// Lower = ‖DualX‖₁ is a certified lower bound on the packing OPT.
	Lower float64
	// Upper is a certified upper bound via weak duality against the
	// averaged density matrix (inflated by the sketch error margin on
	// the JL path).
	Upper float64
	// AvgRatios[i] = (1/T)Σₜ rᵢ⁽ᵗ⁾ — the primal covering values Aᵢ•Y̅.
	AvgRatios []float64
	// Y is the averaged density matrix (dense oracle with
	// TrackPrimalMatrix only).
	Y *matrix.Dense
	// Iterations actually executed (T).
	Iterations int
	// LambdaMaxPsi is the certified λ_max(Σ XᵢAᵢ) at exit.
	LambdaMaxPsi float64
	// MaxPsiNorm is the largest λ_max(Ψ) observed during the run;
	// Lemma 3.2 asserts it stays ≤ (1+10ε)K.
	MaxPsiNorm float64
	// WarmStarted reports whether the run actually started from
	// Options.WarmStart (false when the feasibility guard fell back to
	// the cold start, or when no warm state was supplied).
	WarmStarted bool
	// Final is the resumable end-of-run state (Options.CaptureState
	// only).
	Final *DecisionState
	// Params echoes the constants used.
	Params Params
}

// DecisionPSDP runs Algorithm 3.1 on the packing constraints in set at
// accuracy eps. It returns a result whose Lower and Upper bounds are
// always valid certificates for
//
//	Lower ≤ max{1ᵀx : Σ xᵢAᵢ ≼ I, x ≥ 0} ≤ Upper,
//
// regardless of the outcome branch. In the paper's terms, OutcomeDual
// answers the ε-decision problem with a dual solution and OutcomePrimal
// with a primal (covering) solution.
//
// Options.Engine selects the iteration dynamics (Algorithm 3.1 by
// default, the ALO update rule as a second engine); the certificate
// contract above holds identically for every engine.
func DecisionPSDP(set ConstraintSet, eps float64, opts Options) (*DecisionResult, error) {
	d, err := newDecisionRun(set, eps, opts)
	if err != nil {
		return nil, err
	}
	// Every exit path hands the oracle's buffers back, so a workspace
	// shared across sequential calls (Options.Workspace,
	// MaximizePacking) serves the next call without a pool miss.
	defer d.orc.release()
	if err := d.run(); err != nil {
		return nil, err
	}
	return d.finish()
}

// decisionRun is the live state of one run of the shared iteration:
// oracle ratios, certificate bookkeeping, a multiplicative update on
// the coordinates a stepRule selects, and the rule's exit tests. Every
// solver in this package runs through it — Algorithm 3.1 (mmwRule), the
// ALO engine (aloRule) and the §5 mixed packing/covering extension
// (mixedRule) — so the steady-state iteration is one plain method whose
// allocation behavior the regression tests pin to zero, and every
// buffer the loop touches is created once and reused (the oracle draws
// its own from the shared workspace).
type decisionRun struct {
	set  ConstraintSet
	opts Options
	prm  Params
	eps  float64
	// slack is the primal early-exit slack; threshold is 1+ε.
	slack, threshold float64
	maxIter          int
	orc              expOracle
	ws               *work.Workspace
	n, m             int

	// rule supplies what differs between the solvers sharing this loop.
	// The oracle holds Ψ(orcX), and its λ_max estimates are multiplied
	// by lamScale to recover λ_max(Ψ(x)): orcX = x and lamScale = 1
	// except under the ALO engine (orcX = x/μ, lamScale = μ).
	rule       stepRule
	engineName string
	lamScale   float64
	orcX       []float64

	x      []float64
	frozen []bool
	avg    []float64
	b      []int
	mults  []float64
	ySum   *matrix.Dense

	// Certificate tracking across iterations. Every density matrix P⁽ᵗ⁾
	// is individually a trace-1 covering witness, so min_i rᵢ⁽ᵗ⁾ yields
	// an upper bound 1/min r; likewise every iterate x⁽ᵗ⁾ scaled by
	// λ_max(Ψ⁽ᵗ⁾) is a feasible packing vector. We keep the best of
	// each seen anywhere in the run and re-certify the dual snapshot at
	// exit, which makes the reported bracket far tighter than the exit-
	// point certificates alone.
	bestMinR      float64
	bestDualRatio float64
	bestDualX     []float64
	haveDualSnap  bool

	res  *DecisionResult
	t    int
	done bool
}

// stepRule is the part of one iteration that differs between solvers.
// The loop (decisionRun.step) owns everything else: the Ctx check, the
// step index, phase timing, the oracle ratios, the certificate
// bookkeeping, the oracle update, OnIteration and the iteration cap.
type stepRule interface {
	// pick selects the coordinates to move (d.b) with their
	// multipliers (d.mults), applies them to d.x and keeps d.orcX in
	// step. Setting d.done ends the run before the oracle update.
	pick(d *decisionRun, r []float64, info oracleInfo) error
	// exit runs the rule's exit tests after the update; minR is
	// min_i rᵢ of this iteration. A firing test calls d.stop.
	exit(d *decisionRun, minR float64)
	// capOutcome decides a TheoryExact run that reached its iteration
	// cap without an exit.
	capOutcome(d *decisionRun) Outcome
}

// newRunBase builds the solver-independent part of a run: validation,
// the paper's constants for n constraints at dimension paramDim, the
// oracle, and the cold-start iterate. Callers install the step rule,
// the iteration cap and the start, then initialize the oracle.
func newRunBase(set ConstraintSet, eps float64, opts Options, paramDim int) (*decisionRun, error) {
	if err := guardEps(eps); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// A request cancelled while queued must not pay for oracle setup
	// (the eigendecomposition / sketch of Ψ⁰ dominates small runs).
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: before iteration 1: %w", err)
		}
	}
	n, m := set.N(), set.Dim()
	prm, err := ParamsFor(n, paramDim, eps)
	if err != nil {
		return nil, err
	}
	ws := opts.Workspace
	if ws == nil {
		ws = work.New()
	}
	orc, err := buildOracle(set, eps, opts, ws)
	if err != nil {
		return nil, err
	}
	slack := opts.EarlySlack
	if slack <= 0 {
		slack = eps / 2
	}

	d := &decisionRun{
		set:       set,
		opts:      opts,
		prm:       prm,
		eps:       eps,
		slack:     slack,
		threshold: 1 + eps,
		orc:       orc,
		ws:        ws,
		n:         n,
		m:         m,
		lamScale:  1,
		x:         make([]float64, n),
		frozen:    make([]bool, n),
		avg:       make([]float64, n),
		b:         make([]int, 0, n),
		mults:     make([]float64, 0, n),
		bestDualX: make([]float64, 0, n),
		res:       &DecisionResult{Params: prm, Outcome: OutcomeInconclusive},
	}
	d.orcX = d.x

	// Initial point x⁰ᵢ = 1/(n·Tr[Aᵢ]) (paper line 1), which guarantees
	// Ψ⁰ ≼ I (Claim 3.3). Zero-trace constraints (Aᵢ = 0) are satisfied
	// by any x and are frozen at a nominal value.
	for i := 0; i < n; i++ {
		tr := set.Trace(i)
		switch {
		case tr <= 0:
			d.x[i] = 0
			d.frozen[i] = true
		case opts.TraceCap > 0 && tr > opts.TraceCap:
			d.x[i] = 1 / (float64(n) * tr)
			d.frozen[i] = true
		default:
			d.x[i] = 1 / (float64(n) * tr)
		}
	}
	return d, nil
}

// newDecisionRun builds the run DecisionPSDP drives: the engine
// Options.Engine selects (EngineAuto resolved per instance), its
// iteration budget within Options.MaxIter, and the resume/warm-start
// options applied to the cold-start iterate.
func newDecisionRun(set ConstraintSet, eps float64, opts Options) (*decisionRun, error) {
	d, err := newRunBase(set, eps, opts, set.Dim())
	if err != nil {
		return nil, err
	}
	budget := d.prm.R
	d.engineName, d.rule = EngineNameMMW, mmwRule{}
	if ResolveEngine(opts.Engine, set, eps) == EngineALO {
		a := newALORule(d)
		d.engineName, d.rule, d.lamScale = EngineNameALO, a, a.mu
		budget = aloIterCap(d.prm.LogN, eps)
	}
	d.maxIter = opts.MaxIter
	if d.maxIter <= 0 || d.maxIter > budget {
		d.maxIter = budget
	}
	// The per-engine state rules (restore rejects cross-engine states,
	// warm start falls back cold on them) read d.engineName.
	switch {
	case opts.continueFrom != nil && opts.WarmStart != nil:
		err = errors.New("core: cannot combine WarmStart with resume")
	case opts.continueFrom != nil:
		err = d.restore(opts.continueFrom)
	case opts.WarmStart != nil:
		d.applyWarmStart(opts.WarmStart)
	}
	if err == nil {
		if a, ok := d.rule.(*aloRule); ok {
			a.xs = make([]float64, d.n)
			matrix.VecScale(a.xs, a.invMu, d.x)
			d.orcX = a.xs
		}
		err = d.orc.init(d.orcX)
	}
	if err != nil {
		d.orc.release()
		return nil, err
	}
	return d, nil
}

// run steps until a rule's exit fires, the observer stops the run, or
// the iteration cap is reached.
func (d *decisionRun) run() error {
	for !d.done && d.t < d.maxIter {
		if err := d.step(); err != nil {
			return err
		}
	}
	return nil
}

// stop ends the run with outcome o.
func (d *decisionRun) stop(o Outcome) {
	d.res.Outcome = o
	d.done = true
}

// step runs one iteration: the oracle ratios (paper line 4), the
// certificate bookkeeping, the rule's coordinate selection and
// multiplicative update (lines 5–7), and the rule's exit tests. It sets
// d.done when an exit fires or the observer stops the run. After the
// workspace warms up in iteration 1, a dense-oracle step performs zero
// heap allocations.
func (d *decisionRun) step() error {
	if d.opts.Ctx != nil {
		if err := d.opts.Ctx.Err(); err != nil {
			return fmt.Errorf("core: iteration %d: %w", d.t+1, err)
		}
	}
	d.t++
	ph := d.opts.Phases
	var mark time.Time
	if ph != nil {
		mark = time.Now()
	}
	r, info, err := d.orc.ratios()
	if err != nil {
		return fmt.Errorf("core: iteration %d: %w", d.t, err)
	}
	if ph != nil {
		now := time.Now()
		ph.OracleNS += now.Sub(mark).Nanoseconds()
		mark = now
	}
	lam := d.lamScale * info.LambdaMax
	if lam > d.res.MaxPsiNorm {
		d.res.MaxPsiNorm = lam
	}
	matrix.VecAXPY(d.avg, 1, r)
	minR := matrix.VecMin(r)
	if minR > d.bestMinR {
		d.bestMinR = minR
	}
	if l := math.Max(lam, 1); l > 0 {
		if ratio := matrix.VecSum(d.x) / l; ratio > d.bestDualRatio {
			d.bestDualRatio = ratio
			d.bestDualX = append(d.bestDualX[:0], d.x...)
			d.haveDualSnap = true
		}
	}
	if d.opts.TrackPrimalMatrix {
		if p := d.orc.probability(); p != nil {
			if d.ySum == nil {
				d.ySum = matrix.New(d.m, d.m)
			}
			matrix.AXPY(d.ySum, 1, p)
		}
	}

	if err := d.rule.pick(d, r, info); err != nil {
		return fmt.Errorf("core: iteration %d: %w", d.t, err)
	}
	if ph != nil {
		now := time.Now()
		ph.BookkeepNS += now.Sub(mark).Nanoseconds()
		mark = now
	}
	if !d.done && len(d.b) > 0 {
		if err := d.orc.update(d.b, d.mults, d.orcX); err != nil {
			return err
		}
	}
	if ph != nil {
		ph.UpdateNS += time.Since(mark).Nanoseconds()
		ph.Iterations++
	}

	if d.opts.OnIteration != nil {
		cont := d.opts.OnIteration(IterationInfo{
			T:         d.t,
			XNorm1:    matrix.VecSum(d.x),
			LambdaMax: lam,
			MinRatio:  minR,
			MaxRatio:  matrix.VecMax(r),
			Updated:   len(d.b),
		})
		if !cont {
			d.done = true
			return nil
		}
	}
	if !d.done {
		d.rule.exit(d, minR)
	}
	return nil
}

// primalExit is the primal exit test MMW and ALO share: the running
// average Y̅ = (1/t)ΣP⁽ᵗ⁾ is a covering certificate once
// min_i Aᵢ•Y̅ ≥ 1−slack, and a stalled rule (no coordinate could move)
// stops once a single P⁽ᵗ⁾ already certifies Upper ≤ ~1.
func (d *decisionRun) primalExit(stalled bool) {
	if matrix.VecMin(d.avg)/float64(d.t) >= 1-d.slack || stalled {
		d.stop(OutcomePrimal)
	}
}

// mmwRule is Algorithm 3.1's step: B⁽ᵗ⁾ = {i : rᵢ ≤ 1+ε} (paper line
// 5) minus frozen indices, each bumped by (1+α) — or, with
// Options.Bucketed, by one (1+α) factor per (1+ε)-bucket of headroom.
type mmwRule struct{}

func (mmwRule) pick(d *decisionRun, r []float64, _ oracleInfo) error {
	d.b = d.b[:0]
	d.mults = d.mults[:0]
	for i := 0; i < d.n; i++ {
		if !d.frozen[i] && r[i] <= d.threshold {
			d.b = append(d.b, i)
			steps := 1
			if d.opts.Bucketed {
				steps = bucketSteps(r[i], d.threshold, d.eps, d.prm.Alpha)
			}
			d.mults = append(d.mults, math.Pow(1+d.prm.Alpha, float64(steps)))
		}
	}
	for j, i := range d.b {
		d.x[i] *= d.mults[j]
	}
	return nil
}

// exit: ‖x‖₁ > K is the dual branch (paper line 3). Unless TheoryExact,
// the primal branch may fire early — on the running average, or on a
// single P⁽ᵗ⁾ with min_i rᵢ ≥ 1+ε (exactly the situation when B is
// empty).
func (mmwRule) exit(d *decisionRun, _ float64) {
	switch {
	case matrix.VecSum(d.x) > d.prm.K:
		d.stop(OutcomeDual)
	case !d.opts.TheoryExact:
		d.primalExit(len(d.b) == 0 && d.bestMinR >= 1)
	}
}

// capOutcome: exhausting R iterations is the primal branch (Lemma 3.6).
func (mmwRule) capOutcome(d *decisionRun) Outcome {
	if matrix.VecSum(d.x) > d.prm.K {
		return OutcomeDual
	}
	return OutcomePrimal
}

// finish assembles the DecisionResult with its certified bounds.
func (d *decisionRun) finish() (*DecisionResult, error) {
	set, opts, res := d.set, d.opts, d.res
	if res.Outcome == OutcomeInconclusive && opts.TheoryExact && d.t >= d.maxIter {
		res.Outcome = d.rule.capOutcome(d)
	}

	res.Iterations = d.t
	res.X = matrix.VecClone(d.x)
	res.AvgRatios = make([]float64, d.n)
	matrix.VecScale(res.AvgRatios, 1/float64(d.t), d.avg)
	if d.ySum != nil {
		matrix.Scale(d.ySum, 1/float64(d.t), d.ySum)
		res.Y = d.ySum
	}

	// Certified dual bound: x/λ_max(Ψ) is feasible whenever the λ_max
	// estimate is exact or an overestimate; the dense path is exact and
	// the Lanczos path converges to ~1e-12 relative, so a hair of
	// headroom makes the certificate robust. Both the final iterate and
	// the best snapshot along the run are candidates; the snapshot's
	// λ_max is recomputed at certificate grade before use.
	lam, err := d.orc.lambdaMaxPsi()
	if err != nil {
		return nil, err
	}
	// The ALO engine's oracle holds Ψ(x/μ); lamScale (= μ there, 1 for
	// MMW) maps its spectral estimates back to λ_max(Ψ(x)).
	lam *= d.lamScale
	res.LambdaMaxPsi = lam
	denom := math.Max(lam*(1+1e-9), 1)
	res.DualX = make([]float64, d.n)
	matrix.VecScale(res.DualX, 1/denom, d.x)
	res.Lower = matrix.VecSum(res.DualX)
	if d.haveDualSnap && d.bestDualRatio > res.Lower*(1+1e-12) {
		lamSnap, err := d.orc.lambdaMaxAt(d.bestDualX)
		if err != nil {
			return nil, err
		}
		dSnap := math.Max(lamSnap*(1+1e-9), 1)
		if v := matrix.VecSum(d.bestDualX) / dSnap; v > res.Lower {
			res.Lower = v
			matrix.VecScale(res.DualX, 1/dSnap, d.bestDualX)
		}
	}

	// Certified primal bound (weak duality): for any density matrix Y
	// (a single P⁽ᵗ⁾ or the running average Y̅), any feasible x' has
	// 1ᵀx' ≤ Tr[Y]/min_i Aᵢ•Y. On the JL path each ratio estimate
	// carries (1±ε_s) noise; inflate accordingly.
	minAvg := math.Max(matrix.VecMin(res.AvgRatios), d.bestMinR)
	if minAvg > 0 {
		res.Upper = sketchInflation(set, opts) / minAvg
	} else {
		res.Upper = math.Inf(1)
	}
	// On the sketched path, one deterministic evaluation of the final
	// density matrix (exp(Ψ/2) applied column-exactly) usually certifies
	// a far tighter upper bound than the inflated sketch average. Cost:
	// m ExpMV sweeps, once per decision call.
	if op, ok := set.(PsiOperator); ok && usesJL(set, opts) && op.Dim() <= exactFinalBoundDim {
		exact := newOpExactOracle(op, opts.Seed^0xbead, nil, d.ws)
		// d.orcX is the vector the run's oracle saw (x for MMW, x/μ for
		// ALO); either way exp(Ψ(orcX))/Tr is a trace-1 density matrix,
		// so its min ratio certifies an upper bound by weak duality.
		if err := exact.init(d.orcX); err == nil {
			if rExact, _, err := exact.ratios(); err == nil {
				if mr := matrix.VecMin(rExact); mr > 0 {
					if ub := (1 + 1e-6) / mr; ub < res.Upper {
						res.Upper = ub
					}
				}
			}
		}
		exact.release()
	}
	if opts.CaptureState {
		res.Final = d.snapshot()
	}
	return res, nil
}

// exactFinalBoundDim caps the dimension at which the final exact
// verification sweep (m ExpMV applications) is considered cheap.
const exactFinalBoundDim = 4096

// bucketSteps returns how many (1+α) factors a coordinate with ratio r
// may take under dynamic bucketing: one per (1+ε)-bucket of headroom
// below the threshold, capped so a single iteration never multiplies a
// coordinate by more than ~e^{1/4} (keeping the ‖x‖₁ > K overshoot of
// Claim 3.5 controlled).
func bucketSteps(r, threshold, eps, alpha float64) int {
	if r <= 0 {
		r = 1e-300
	}
	if r > threshold {
		return 1
	}
	k := 1 + int(math.Log(threshold/r)/math.Log(1+eps))
	limit := int(math.Ceil(0.25 / alpha))
	if limit < 1 {
		limit = 1
	}
	if k > limit {
		k = limit
	}
	if k < 1 {
		k = 1
	}
	return k
}

// usesJL reports whether the run used the sketched operator oracle
// (OracleAuto resolves to it for every PsiOperator representation,
// mirroring buildOracle; DenseSet does not implement the interface).
func usesJL(set ConstraintSet, opts Options) bool {
	if opts.Oracle == OracleFactoredJL {
		return true
	}
	if opts.Oracle == OracleAuto {
		_, ok := set.(PsiOperator)
		return ok
	}
	return false
}

// sketchInflation returns the multiplicative margin applied to the
// weak-duality upper bound to cover JL estimation noise: (1+εₛ)/(1−εₛ)
// on the sketched path, 1 elsewhere.
func sketchInflation(set ConstraintSet, opts Options) float64 {
	if !usesJL(set, opts) {
		return 1
	}
	es := opts.SketchEps
	if es <= 0 {
		es = 0.2
	}
	if es >= 1 {
		return math.Inf(1)
	}
	return (1 + es) / (1 - es)
}

// operatorFor returns the PsiOperator view of a set, which is what the
// operator oracles (JL and exact) accept. DenseSet does not implement
// the interface (its auto path is the eigendecomposition oracle and it
// would silently lose its exactness guarantees behind a sketched
// oracle), so the assertion alone rejects it.
func operatorFor(set ConstraintSet, kind string) (PsiOperator, error) {
	op, ok := set.(PsiOperator)
	if !ok {
		return nil, fmt.Errorf("core: %s requires a factored or sparse constraint set, got %T", kind, set)
	}
	return op, nil
}

// buildOracle returns the oracle opts selects for set. A dense oracle's
// warm route stops at eta = eps/4, for the run's own eps.
func buildOracle(set ConstraintSet, eps float64, opts Options, ws *work.Workspace) (expOracle, error) {
	switch opts.Oracle {
	case OracleAuto:
		switch s := set.(type) {
		case *DenseSet:
			o := newDenseOracle(s, eps/4, opts.Stats, ws)
			o.ph = opts.Phases
			return o, nil
		case PsiOperator:
			o := newOpJLOracle(s, opts.SketchEps, opts.Seed, opts.Stats, ws)
			o.ph = opts.Phases
			return o, nil
		default:
			return nil, fmt.Errorf("core: unknown constraint set type %T", set)
		}
	case OracleDenseExact:
		s, ok := set.(*DenseSet)
		if !ok {
			return nil, errNotDense
		}
		o := newDenseOracle(s, eps/4, opts.Stats, ws)
		o.ph = opts.Phases
		return o, nil
	case OracleFactoredJL:
		op, err := operatorFor(set, "OracleFactoredJL")
		if err != nil {
			return nil, err
		}
		o := newOpJLOracle(op, opts.SketchEps, opts.Seed, opts.Stats, ws)
		o.ph = opts.Phases
		return o, nil
	case OracleFactoredExact:
		op, err := operatorFor(set, "OracleFactoredExact")
		if err != nil {
			return nil, err
		}
		o := newOpExactOracle(op, opts.Seed, opts.Stats, ws)
		o.ph = opts.Phases
		return o, nil
	default:
		return nil, fmt.Errorf("core: unknown oracle kind %d", opts.Oracle)
	}
}

func maxInt3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
