package core

import "repro/internal/work"

// Test-only handles for the external core_test package, whose
// reference loops drive the ratio oracle directly.

// RefOracle is the per-iteration ratio primitive behind the shared
// loop, built exactly as the loop builds it.
type RefOracle struct{ o expOracle }

// NewRefOracle builds the oracle opts selects for a run at eps on a
// private workspace.
func NewRefOracle(set ConstraintSet, eps float64, opts Options) (*RefOracle, error) {
	o, _, err := buildOracle(set, eps, opts, work.New())
	if err != nil {
		return nil, err
	}
	return &RefOracle{o: o}, nil
}

// Init installs the starting dual vector.
func (r *RefOracle) Init(x []float64) error { return r.o.init(x) }

// Ratios returns rᵢ for all constraints at the current x.
func (r *RefOracle) Ratios() ([]float64, error) {
	v, _, err := r.o.ratios()
	return v, err
}

// UpdateMults informs the oracle that x[b[j]] was multiplied by
// mults[j]; x is the post-update vector.
func (r *RefOracle) UpdateMults(b []int, mults, x []float64) error { return r.o.update(b, mults, x) }

// ALOIterCap is the ALO engine's iteration budget.
func ALOIterCap(logN, eps float64) int { return aloIterCap(logN, eps) }
