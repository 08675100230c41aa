package core

import (
	"errors"

	"repro/internal/parallel"
)

// CompareOracles evaluates the per-iteration ratios rᵢ = exp(Ψ)•Aᵢ/Tr[exp(Ψ)]
// on the same dual vector through both the JL-sketched factored oracle
// (Theorem 4.1's bigDotExp) and the exact dense oracle, returning both
// vectors. It is the validation harness for experiment E6: the two sets
// must represent the same constraints. The probe point is
// xᵢ = 4/(n·Tr[Aᵢ]), a few multiplicative steps into a typical run, so
// Ψ has nontrivial spectrum. The Stats recorder (may be nil) sees only
// the factored oracle's work.
func CompareOracles(dense *DenseSet, fact *FactoredSet, sketchEps float64, seed uint64, st *parallel.Stats) (jl, exact []float64, err error) {
	if dense.N() != fact.N() || dense.Dim() != fact.Dim() {
		return nil, nil, errors.New("core: CompareOracles: sets differ in shape")
	}
	n := dense.N()
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		tr := dense.Trace(i)
		if tr <= 0 {
			return nil, nil, errors.New("core: CompareOracles: zero-trace constraint")
		}
		x[i] = 4 / (float64(n) * tr)
	}

	fo := newOpJLOracle(fact, sketchEps, seed, st, nil)
	if err := fo.init(x); err != nil {
		return nil, nil, err
	}
	jl, _, err = fo.ratios()
	if err != nil {
		return nil, nil, err
	}

	// Its single ratios call runs the full route, so no eta applies.
	do := newDenseOracle(dense, 0, nil, nil)
	if err := do.init(x); err != nil {
		return nil, nil, err
	}
	exact, _, err = do.ratios()
	if err != nil {
		return nil, nil, err
	}
	return jl, exact, nil
}
