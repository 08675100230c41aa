package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/work"
)

// Solution is the result of the optimization pipeline: a certified
// bracket [Lower, Upper] around the packing optimum and the best
// feasible witness found.
type Solution struct {
	// Value = Lower is the certified value of the witness X.
	Value float64
	// X is a feasible packing vector (Σ XᵢAᵢ ≼ I, verified) achieving
	// Value.
	X []float64
	// Lower and Upper bracket the true optimum.
	Lower, Upper float64
	// DecisionCalls counts invocations of Algorithm 3.1 (Lemma 2.2
	// bounds this by O(log n)).
	DecisionCalls int
	// TotalIterations sums Algorithm 3.1 iterations across calls.
	TotalIterations int
	// Y is the covering witness (trace-normalized, for the scaled
	// instance of the last primal-certifying call) when the dense
	// oracle tracked it; see DecisionResult.Y.
	Y *matrix.Dense
	// YScale is the instance scale θ at which Y was produced.
	YScale float64
}

// Gap returns Upper/Lower − 1, the certified relative optimality gap.
func (s *Solution) Gap() float64 {
	if s.Lower <= 0 {
		return math.Inf(1)
	}
	return s.Upper/s.Lower - 1
}

// MaximizePacking approximates the packing SDP
//
//	max 1ᵀx  s.t.  Σᵢ xᵢAᵢ ≼ I,  x ≥ 0
//
// to relative accuracy eps using the binary-search reduction of
// Lemma 2.2: initial bounds from constraint traces (a factor ≤ n·m
// bracket), then repeated decision calls on geometrically rescaled
// instances until Upper ≤ (1+ε)·Lower. The engine is resolved once, at
// eps/4, so EngineAuto's pick does not depend on the accuracy it then
// selects, and every call runs on it at callEps; a bracket the looser
// calls stall on is closed at eps/4 (see closeCalls). Every returned bound
// is certified by an explicit witness, so the result does not depend on
// trusting the proof constants.
func MaximizePacking(set ConstraintSet, eps float64, opts Options) (*Solution, error) {
	if err := guardEps(eps); err != nil {
		return nil, err
	}
	n, m := set.N(), set.Dim()
	if n == 0 {
		return nil, ErrEmptySet
	}

	// Initial bracket from traces: eᵢ/Tr[Aᵢ] is feasible
	// (λ_max(Aᵢ) ≤ Tr[Aᵢ]), so OPT ≥ 1/min Tr; and xᵢ ≤ 1/λ_max(Aᵢ) ≤
	// m/Tr[Aᵢ] for any feasible x, so OPT ≤ Σᵢ m/Tr[Aᵢ].
	lo, hi := 0.0, 0.0
	minTr := math.Inf(1)
	for i := 0; i < n; i++ {
		tr := set.Trace(i)
		if tr <= 0 {
			// A zero constraint contributes unbounded xᵢ: the packing
			// optimum is infinite.
			return nil, fmt.Errorf("core: constraint %d is zero; packing value unbounded", i)
		}
		if tr < minTr {
			minTr = tr
		}
		hi += float64(m) / tr
	}
	lo = 1 / minTr

	sol := &Solution{Lower: lo, Upper: hi}
	// The trace-based lower bound comes with an explicit witness too.
	bestX := make([]float64, n)
	for i := 0; i < n; i++ {
		if set.Trace(i) == minTr {
			bestX[i] = 1 / minTr
			break
		}
	}
	sol.X = bestX
	sol.Value = lo

	// One workspace serves every decision call: the instances share
	// shapes (only the scale changes), so the pools warmed by call 0
	// make every later call allocation-free in steady state.
	ws := opts.Workspace
	if ws == nil {
		ws = work.New()
	}

	// Decision calls needed: each call shrinks the bracket ratio from ρ
	// to about √ρ·(1+O(ε)), so ~log₂ log(n·m) + log(1/ε) calls suffice;
	// the cap below is generous and only guards against pathological
	// stalls.
	maxCalls := 4*int(math.Ceil(math.Log2(math.Log2(math.Max(4, hi/lo))+2))) + 3*int(math.Ceil(math.Log2(1/eps))) + 16

	eng := ResolveEngine(opts.Engine, set, eps/4)
	ceps := callEps(eng, eps)
	limit := maxCalls
	stalls := 0
	decided := false // the last call reached Dual or Primal
	for call := 0; hi > (1+eps)*lo; call++ {
		if call >= limit || stalls >= 2 {
			// Theory guarantees progress; randomized oracles may stall
			// once on sketch noise (the next call reseeds), but repeated
			// stalls mean the certificates have reached their numerical
			// resolution at this accuracy. Decided calls looser than
			// ε/4 can stall on a bracket still wider than 1+ε, so those
			// close at ε/4 with closeCalls more calls. At ε/4, or after
			// an inconclusive call (a MaxIter cap the tighter calls
			// would hit too), the loop stops with the still-valid
			// bracket.
			if ceps == eps/4 || !decided {
				break
			}
			ceps = eps / 4
			stalls = 0
			limit = call + closeCalls
		}
		// Cancellation checkpoint between decision calls: the bracket
		// narrowed so far stays certified, but a cancelled caller wants
		// its worker (and workspace) back, not a tighter bound.
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: decision call %d: %w", call, err)
			}
		}
		theta := math.Sqrt(lo * hi)
		scaled := set.WithScale(theta)
		// Derive a fresh seed per call so randomized oracles (JL
		// sketches, Lanczos starts) are independent across calls while
		// the whole run stays deterministic in opts.Seed.
		callOpts := opts
		callOpts.Seed = opts.Seed*1315423911 + uint64(call) + 1
		callOpts.Workspace = ws
		callOpts.Engine = eng
		dr, err := DecisionPSDP(scaled, ceps, callOpts)
		if err != nil {
			return nil, fmt.Errorf("core: decision call %d (θ=%g): %w", call, theta, err)
		}
		sol.DecisionCalls++
		sol.TotalIterations += dr.Iterations
		decided = dr.Outcome != OutcomeInconclusive

		// Map certified bounds on the scaled instance back:
		// OPT = θ·OPT_scaled.
		newLo := theta * dr.Lower
		newHi := theta * dr.Upper
		improved := false
		if newLo > lo {
			lo = newLo
			improved = true
			// Witness transfers: y = θ·DualX is feasible for the
			// original set (Σ yᵢAᵢ = Σ DualXᵢ·(θAᵢ) ≼ I).
			for i := range bestX {
				bestX[i] = theta * dr.DualX[i]
			}
			sol.X = matrix.VecClone(bestX)
			sol.Value = lo
		}
		if newHi < hi {
			hi = newHi
			improved = true
			if dr.Y != nil {
				sol.Y = dr.Y
				sol.YScale = theta
			}
		}
		sol.Lower, sol.Upper = lo, hi
		if improved {
			stalls = 0
		} else {
			stalls++
		}
	}
	sol.Lower, sol.Upper = lo, hi
	return sol, nil
}

// closeCalls is the number of ε/4 calls MaximizePacking grants a
// bracket that its looser calls stopped on while still wider than 1+ε.
// A call at accuracy δ and θ = √(lo·hi) certifies a bound within about
// 1+δ of θ, so it can stall only once hi/lo ≤ (1+δ)². At δ = ε/2 that
// window reaches past 1+ε; one ε/4 call from inside it leaves
// hi/lo ≤ (1+ε/2)(1+ε/4) < 1+ε. The spare calls absorb sketch noise.
const closeCalls = 4

// callEps is the accuracy MaximizePacking runs each decision call at
// under engine eng: ε/2 for MMW, ε/4 for ALO. MMW's iteration budget
// grows as ε⁻³. On twelve dense instances (8×8 and 6×10, seeds 1–6,
// ε = 0.2) MMW at ε/2 took 3.0× fewer iterations than at ε/4, and its
// worst certified gap was 0.163 (0.198 at ε/4); BenchmarkMaximizeDense's
// MMW classes drop from 13874 to 4250 and from 7491 to 2733
// iterations. ALO at ε/2 took about twice the decision calls and its
// worst gap, 0.234, exceeded ε.
func callEps(eng EngineKind, eps float64) float64 {
	if eng == EngineALO {
		return eps / 4
	}
	return eps / 2
}
