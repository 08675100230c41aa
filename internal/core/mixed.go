package core

import (
	"math"

	"repro/internal/matrix"
)

// MixedRun is the unverified outcome of RunMixed: the final iterate of
// the §5 mixed packing/covering dynamics (internal/mixed checks both
// sides of it).
type MixedRun struct {
	// X is the final iterate.
	X []float64
	// Iterations executed.
	Iterations int
	// Capped counts the coordinates frozen at their cap
	// xᵢ = (1+ε)/λ_max(Aᵢ) during the run.
	Capped int
	// WarmStarted reports whether the warm vector seeded the iterate.
	WarmStarted bool
	// Engine names the engine the run used (EngineAuto resolved).
	Engine string
}

// RunMixed runs the mixed packing/covering step rule — find x ≥ 0 with
// Σ xᵢAᵢ ≼ I over pack and cover·x ≥ 1 — through the loop DecisionPSDP
// uses. It reads Options.Engine (EngineAuto resolved by ResolveEngine),
// Oracle, Seed, SketchEps, MaxIter (0 means the engine's budget: R for
// MMW, the O(ε⁻² log² N) cap for ALO), Ctx, Workspace and Phases.
// warm, when it has length n and finite nonnegative entries, seeds the
// iterate coordinate-wise above the cold start and below the caps.
func RunMixed(pack ConstraintSet, cover *matrix.Dense, eps float64, opts Options, warm []float64) (*MixedRun, error) {
	d, err := newMixedRun(pack, cover, eps, opts, warm)
	if err != nil {
		return nil, err
	}
	defer d.orc.release()
	if err := d.run(); err != nil {
		return nil, err
	}
	r := d.rule.(*mixedRule)
	return &MixedRun{X: d.x, Iterations: d.t, Capped: r.capped, WarmStarted: d.res.WarmStarted, Engine: d.engineName}, nil
}

// newMixedRun builds the run RunMixed drives: the covering rule, its
// start and its iteration budget.
func newMixedRun(pack ConstraintSet, cover *matrix.Dense, eps float64, opts Options, warm []float64) (*decisionRun, error) {
	// The covering rows join the dimension in N = max(n, m, d).
	d, err := newRunBase(pack, eps, opts, max(pack.Dim(), cover.R))
	if err != nil {
		return nil, err
	}
	eng := ResolveEngine(opts.Engine, pack, eps)
	d.engineName = eng.String()
	r := newMixedRule(d, cover, eng == EngineALO)
	d.rule = r
	d.maxIter = opts.MaxIter
	if d.maxIter == 0 {
		d.maxIter = d.prm.R
		if r.alo {
			d.maxIter = aloIterCap(d.prm.LogN, eps)
		}
	}
	if err = r.warmStart(d, warm); err == nil {
		err = d.orc.init(d.x)
	}
	if err != nil {
		d.orc.release()
		return nil, err
	}
	return d, nil
}

// mixedRule couples Algorithm 3.1's matrix soft-max packing ratios
// pᵢ = exp(Ψ)•Aᵢ/Tr[exp(Ψ)] with Young-style soft-min covering ratios
// cᵢ = Σⱼ e^{−(Cx)ⱼ}Cⱼᵢ / Σⱼ e^{−(Cx)ⱼ} and moves the coordinates
// whose packing cost is small relative to their covering benefit. The
// oracle sees x itself under both engines. Algorithm 3.1's coordinate
// cap bounds the iterate: a step that would carry xᵢ past
// (1+ε)/λ_max(Aᵢ) ends exactly on the cap and freezes the coordinate.
// The rule stops the run once every row is covered or no coordinate
// can help; it certifies nothing itself.
type mixedRule struct {
	cover *matrix.Dense
	alo   bool
	// eta is the ALO step, μ/2 with μ = ε/(4(1+log N)).
	eta float64
	// cx = C·x, w the soft-min weights, cRatio the covering benefit.
	cx, w, cRatio []float64
	// guard[i] = (1+ε)/Tr[Aᵢ] is a free lower bound on the cap: since
	// λ_max(Aᵢ) ≤ Tr[Aᵢ], no step below the guard can hit the cap, so
	// the per-constraint λ_max (a Lanczos/eigen solve) is computed
	// lazily, first time a coordinate crosses its guard.
	guard []float64
	// capv[i] = (1+ε)/λ_max(Aᵢ) once computed; 0 = not yet computed.
	capv   []float64
	unit   []float64
	capped int
}

// newMixedRule installs the mixed cold start over the packing-safe
// point x⁰ᵢ = 1/(n·Tr[Aᵢ]) the run base set. A zero packing constraint
// exerts no packing pressure; it gets the covering-scaled start
// x⁰ᵢ = 1/(n·max_j Cⱼᵢ) instead, so it enters the multiplicative
// dynamics like every other coordinate. A coordinate with zero trace
// AND a zero covering column is useless on both sides — it stays at 0,
// frozen.
func newMixedRule(d *decisionRun, cover *matrix.Dense, alo bool) *mixedRule {
	n, rows := d.n, cover.R
	r := &mixedRule{
		cover:  cover,
		alo:    alo,
		eta:    d.eps / (8 * (1 + d.prm.LogN)),
		cx:     make([]float64, rows),
		w:      make([]float64, rows),
		cRatio: make([]float64, n),
		guard:  make([]float64, n),
		capv:   make([]float64, n),
		unit:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if tr := d.set.Trace(i); tr > 0 {
			r.guard[i] = (1 + d.eps) / tr
			continue
		}
		r.guard[i] = math.Inf(1)
		cmax := 0.0
		for j := 0; j < rows; j++ {
			cmax = math.Max(cmax, cover.At(j, i))
		}
		d.x[i], d.frozen[i] = 0, true
		if cmax > 0 {
			d.x[i], d.frozen[i] = 1/(float64(n)*cmax), false
		}
	}
	return r
}

// warmStart adopts a previous iterate coordinate-wise when the vector
// is shaped and signed right, never dropping below the cold floor (a
// zero coordinate could not grow multiplicatively) and never past the
// cap.
func (r *mixedRule) warmStart(d *decisionRun, warm []float64) error {
	if len(warm) != d.n {
		return nil
	}
	for _, v := range warm {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	for i, v := range warm {
		if d.frozen[i] || v <= d.x[i] {
			continue
		}
		if err := r.clamp(d, i, v); err != nil {
			return err
		}
	}
	d.res.WarmStarted = true
	return nil
}

// capFor returns the coordinate cap (1+ε)/λ_max(Aᵢ), computing and
// memoizing the certificate-grade per-constraint λ_max on first use.
func (r *mixedRule) capFor(d *decisionRun, i int) (float64, error) {
	if r.capv[i] != 0 {
		return r.capv[i], nil
	}
	for k := range r.unit {
		r.unit[k] = 0
	}
	r.unit[i] = 1
	lam, err := d.orc.lambdaMaxAt(r.unit)
	if err != nil {
		return 0, err
	}
	c := math.Inf(1)
	if lam > 0 {
		c = (1 + d.eps) / lam
	}
	r.capv[i] = c
	return c, nil
}

// clamp sets x[i] = v, or exactly the cap when v reaches it, freezing
// the coordinate there.
func (r *mixedRule) clamp(d *decisionRun, i int, v float64) error {
	if v > r.guard[i] {
		c, err := r.capFor(d, i)
		if err != nil {
			return err
		}
		if v >= c {
			v = c
			d.frozen[i] = true
			r.capped++
		}
	}
	d.x[i] = v
	return nil
}

func (r *mixedRule) pick(d *decisionRun, pr []float64, _ oracleInfo) error {
	d.b = d.b[:0]
	d.mults = d.mults[:0]
	// Covering soft-min weights on the shortfall, shift-stabilized.
	r.cover.MulVecTo(r.cx, d.x)
	minCx := matrix.VecMin(r.cx)
	if minCx >= 1 {
		d.done = true // fully covered
		return nil
	}
	for j := range r.w {
		r.w[j] = math.Exp(-(r.cx[j] - minCx))
	}
	trW := matrix.VecSum(r.w)
	for i := range r.cRatio {
		r.cRatio[i] = 0
	}
	for j := range r.w {
		wj := r.w[j] / trW
		if wj == 0 {
			continue
		}
		for i, c := range r.cover.Row(j) {
			r.cRatio[i] += wj * c
		}
	}
	// Normalize the covering benefit to a dimensionless ratio against
	// its own mean so it compares with pᵢ (which averages to ~1 by
	// construction).
	meanC := matrix.VecSum(r.cRatio) / float64(d.n)
	if meanC <= 0 {
		d.done = true // nothing helps coverage: stuck
		return nil
	}
	if r.alo {
		r.pickALO(d, pr)
	} else {
		r.pickMMW(d, pr, meanC)
	}
	if len(d.b) == 0 {
		d.done = true // every coordinate frozen or useless: stuck
		return nil
	}
	for j, i := range d.b {
		mult := d.mults[j]
		if mult <= 1 {
			d.x[i] *= mult
			continue
		}
		// A step past the cap is shortened to end exactly on it.
		x := d.x[i]
		if err := r.clamp(d, i, x*mult); err != nil {
			return err
		}
		if d.frozen[i] {
			d.mults[j] = d.x[i] / x
		}
	}
	return nil
}

// pickALO is the truncated-gradient step: every live coordinate moves
// by exp(η·g) with g = clamp(1 − prᵢ/((1+ε)·cRatioᵢ), ±1) — Young's
// marginal-price comparison, packing cost against covering benefit
// UNNORMALIZED (both are gradients of the smoothed potentials, so they
// share the instance's scale). Positive (grow) below the price
// threshold, negative (shrink) above, saturating at one η either way.
// A coordinate with no covering benefit only ever shrinks.
func (r *mixedRule) pickALO(d *decisionRun, pr []float64) {
	for i := 0; i < d.n; i++ {
		if d.frozen[i] {
			continue
		}
		g := -1.0
		if benefit := (1 + d.eps) * r.cRatio[i]; benefit > 0 {
			g = math.Max(-1, math.Min(1, 1-pr[i]/benefit))
		}
		d.b = append(d.b, i)
		d.mults = append(d.mults, math.Exp(r.eta*g))
	}
}

// pickMMW takes B = {i : packing cost ≤ (1+ε)·relative covering
// benefit}, each bumped by (1+α). When B is empty it pushes the single
// best benefit/cost coordinate so progress never stalls entirely.
func (r *mixedRule) pickMMW(d *decisionRun, pr []float64, meanC float64) {
	step := 1 + d.prm.Alpha
	best, arg := 0.0, -1
	for i := 0; i < d.n; i++ {
		if d.frozen[i] {
			continue
		}
		if pr[i] <= (1+d.eps)*r.cRatio[i]/meanC {
			d.b = append(d.b, i)
			d.mults = append(d.mults, step)
		} else if pr[i] > 0 && r.cRatio[i]/pr[i] > best {
			best, arg = r.cRatio[i]/pr[i], i
		}
	}
	if len(d.b) == 0 && arg >= 0 {
		d.b = append(d.b, arg)
		d.mults = append(d.mults, step)
	}
}

// exit: the mixed rule stops inside pick (covered or stuck) and
// otherwise runs to the iteration cap.
func (r *mixedRule) exit(*decisionRun, float64) {}

// capOutcome: a mixed run reports no decision outcome.
func (r *mixedRule) capOutcome(*decisionRun) Outcome { return OutcomeInconclusive }
