package core

import (
	"fmt"
)

// EngineKind selects the iteration dynamics behind DecisionPSDP and
// MaximizePacking. The zero value is EngineMMW — the paper's Algorithm
// 3.1 — so existing callers (and every committed golden bit pattern)
// are untouched by the engine split. EngineAuto is an explicit opt-in
// that picks per instance; see ResolveEngine for the rule.
type EngineKind int

const (
	// EngineMMW is the matrix-multiplicative-weights decision loop of
	// Peng–Tangwongsan Algorithm 3.1: R = O(ε⁻³ log² N) iterations,
	// coordinate steps of (1+α) on the below-threshold set B. The
	// reference engine and the default.
	EngineMMW EngineKind = iota
	// EngineALO realizes the optimization view of Allen-Zhu–Lee–
	// Orecchia (arXiv:1507.02259) over the same oracles and workspaces:
	// truncated gradient descent on the smoothed objective
	// f_μ(x) = μ·Tr exp((Ψ(x)−I)/μ) − 1ᵀx with μ = Θ(ε/log N), cutting
	// the iteration budget to O(ε⁻² log² N). At tight ε its growth rate
	// per iteration is ~(1/ε)× MMW's, which is where it wins.
	EngineALO
	// EngineAuto resolves to MMW or ALO per instance (ε, n,
	// representation); see ResolveEngine.
	EngineAuto
)

// Engine state tags stored in DecisionState.Engine. The empty string is
// accepted as EngineNameMMW for states captured before the engine split.
const (
	EngineNameMMW = "mmw"
	EngineNameALO = "alo"
)

// String implements fmt.Stringer ("mmw", "alo", "auto").
func (k EngineKind) String() string {
	switch k {
	case EngineMMW:
		return EngineNameMMW
	case EngineALO:
		return EngineNameALO
	case EngineAuto:
		return "auto"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngine maps the spelled-out engine names CLIs and config files
// use to EngineKind: "mmw" (or "", the default), "alo", "auto".
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", EngineNameMMW:
		return EngineMMW, nil
	case EngineNameALO:
		return EngineALO, nil
	case "auto":
		return EngineAuto, nil
	}
	return EngineMMW, fmt.Errorf("core: unknown engine %q (want mmw, alo, or auto)", s)
}

// autoEngineEps is the ε at and below which EngineAuto switches to ALO:
// the point where MMW's ε⁻³ iteration budget starts to dominate ALO's
// larger per-iteration cost (every coordinate moves every step, and the
// operator oracles exponentiate at the larger norm ‖Ψ‖/μ).
const autoEngineEps = 0.1

// autoEngineDenseMinN keeps tiny dense instances on MMW under
// EngineAuto: both engines pay a comparable O(m³) oracle per iteration
// there (the dense oracle's warm eigenbasis refinement, 1.1–1.6 Jacobi
// sweeps per call in either engine on dense-solve's 8×8 and 6×10
// shapes), and MMW's sparse |B|-coordinate updates make its iterations
// cheaper, so the crossover needs enough constraints for the
// iteration-count saving to pay.
const autoEngineDenseMinN = 8

// ResolveEngine resolves EngineAuto to a concrete engine for an
// instance: ALO when ε is tight enough that MMW's O(ε⁻³) budget
// dominates (ε ≤ 0.1), except on dense instances too small for ALO's
// denser per-iteration updates to be worth it; MMW otherwise. Concrete
// kinds pass through unchanged. The rule is deterministic in
// (ε, n, representation), which lets serving layers fold the resolved
// engine into content digests.
func ResolveEngine(kind EngineKind, set ConstraintSet, eps float64) EngineKind {
	if kind != EngineAuto {
		return kind
	}
	if eps > autoEngineEps {
		return EngineMMW
	}
	if _, dense := set.(*DenseSet); dense && set.N() < autoEngineDenseMinN {
		return EngineMMW
	}
	return EngineALO
}

// legacyEngineName maps a DecisionState.Engine tag to its canonical
// form: states captured before the engine split carry "" and belong to
// the only engine that existed, MMW.
func legacyEngineName(tag string) string {
	if tag == "" {
		return EngineNameMMW
	}
	return tag
}
