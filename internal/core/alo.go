package core

import (
	"math"

	"repro/internal/matrix"
)

// aloRule is the EngineALO step rule: the optimization view of
// Allen-Zhu–Lee–Orecchia (arXiv:1507.02259), run by the same loop,
// oracles, workspaces and fixed-reduction-tree kernels as Algorithm
// 3.1. Instead of the thresholded (1+α) bumps on the below-threshold
// set, every coordinate follows the truncated gradient of the smoothed
// packing objective
//
//	f_μ(x) = μ·Tr exp((Ψ(x) − I)/μ) − 1ᵀx,   μ = ε/(4(1+log N)),
//
// whose gradient is ∇ᵢ f_μ = Aᵢ • exp((Ψ−I)/μ) − 1. The multiplicative
// step xᵢ ← xᵢ·e^{−α·T(∇ᵢ)} with the truncation T(v) = clamp(v, ±1)
// and α = μ/2 needs only O(ε⁻² log² N) iterations — one 1/ε factor
// better than MMW's R — because the per-iteration growth rate e^α is
// Θ(ε/log N) instead of MMW's 1+Θ(ε²/log N).
//
// The rule reuses the exp(Ψ)-oracles unchanged by feeding them the
// scaled iterate xs = x/μ (decisionRun.orcX, with lamScale = μ):
// Ψ(x/μ) = Ψ(x)/μ, so the oracle's normalized ratios
// rᵢ = Aᵢ•exp(Ψ/μ)/Tr and its LogTrW reconstruct the absolute gradient
// in log space,
//
//	∇ᵢ = rᵢ·exp(LogTrW − 1/μ) − 1 = exp(LogTrW − 1/μ + ln rᵢ) − 1,
//
// without ever materializing the e^{1/μ}-scale factor (which would
// overflow at tight ε). The certificate bookkeeping is the loop's —
// every density matrix exp(Ψ(xs))/Tr is a trace-1 covering witness and
// every iterate x/λ_max(Ψ(x)) a feasible packing vector, for any
// dynamics — so the certified Lower/Upper contract of DecisionPSDP
// holds the same way. The per-coordinate gradient loop is sequential,
// so the rule is bitwise deterministic across GOMAXPROCS.
type aloRule struct {
	// mu is the smoothing parameter, alpha the step size, invMu = 1/mu.
	mu, alpha, invMu float64
	// xs = x/mu is the vector the oracle holds; updated in place (the
	// operator oracles read it through a retained pointer, the dense
	// oracle through update's incremental deltas).
	xs []float64
	// grew counts the coordinates the last pick moved up.
	grew int
}

func newALORule(d *decisionRun) *aloRule {
	mu := d.eps / (4 * (1 + d.prm.LogN))
	return &aloRule{mu: mu, alpha: mu / 2, invMu: 1 / mu}
}

// aloIterCap is the ALO engine's iteration budget,
//
//	T = ⌈64·(1+log N)²/ε²⌉ = O(ε⁻² log² N),
//
// covering both the multiplicative growth phase (≈ log(dynamic
// range)/α iterations) and the 1/(αε) mirror-descent convergence term,
// with the same overflow clamp as Params.R.
func aloIterCap(logN, eps float64) int {
	tf := math.Ceil(64 * (1 + logN) * (1 + logN) / (eps * eps))
	if tf >= float64(math.MaxInt) {
		return math.MaxInt
	}
	return int(tf)
}

// aloDualExitRatio is the certified dual ratio at which the ALO engine
// answers "accept": some iterate x/λ_max(Ψ(x)) has packing value
// ≥ 1 − ε, i.e. OPT ≥ 1 − ε — inside the same O(ε) accept band MMW's
// ‖x‖₁ > K exit certifies (its exit ratio is ≥ 1/(1+10ε)).
func aloDualExitRatio(eps float64) float64 { return 1 - eps }

// aloTruncLog is ln 2: a log-space gradient t = LogTrW − 1/μ + ln rᵢ at
// or above it means exp(t) − 1 ≥ 1, so the truncated feedback is +1
// without evaluating the (possibly overflowing) exponential.
const aloTruncLog = 0.6931471805599453

// pick takes the truncated gradient in log space, then the
// multiplicative step on every unfrozen coordinate. A zero ratio means
// the gradient is exactly −1 (the constraint is invisible in the
// current density matrix, so its coordinate grows at full rate).
func (a *aloRule) pick(d *decisionRun, r []float64, info oracleInfo) error {
	logShift := info.LogTrW - a.invMu
	d.b = d.b[:0]
	d.mults = d.mults[:0]
	a.grew = 0
	for i := 0; i < d.n; i++ {
		if d.frozen[i] {
			continue
		}
		v := -1.0
		if r[i] > 0 {
			if t := logShift + math.Log(r[i]); t >= aloTruncLog {
				v = 1
			} else if g := math.Expm1(t); g > -1 {
				v = g
			}
		}
		if v == 0 {
			continue
		}
		if v < 0 {
			a.grew++
		}
		mult := math.Exp(-a.alpha * v)
		d.x[i] *= mult
		d.b = append(d.b, i)
		d.mults = append(d.mults, mult)
	}
	if len(d.b) > 0 {
		// Scaling by 1/μ commutes with the per-coordinate multipliers,
		// so the oracle's incremental update sees consistent (mults, xs).
		matrix.VecScale(a.xs, a.invMu, d.x)
	}
	return nil
}

// exit: a certified iterate reached packing value 1−ε (dual), or one of
// the primal exits shared with MMW — with "stalled" meaning no
// coordinate grew while a single density matrix already certifies
// Upper ≤ ~1.
func (a *aloRule) exit(d *decisionRun, minR float64) {
	switch {
	case d.opts.TheoryExact:
	case d.bestDualRatio >= aloDualExitRatio(d.eps):
		d.stop(OutcomeDual)
	default:
		d.primalExit(a.grew == 0 && minR >= 1)
	}
}

// capOutcome: the ALO budget exhausted without an early exit decides by
// the certified dual ratio the run accumulated (its analog of MMW's
// ‖x‖₁ > K signal).
func (a *aloRule) capOutcome(d *decisionRun) Outcome {
	if d.bestDualRatio >= aloDualExitRatio(d.eps) {
		return OutcomeDual
	}
	return OutcomePrimal
}
