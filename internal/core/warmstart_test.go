package core

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/matrix"
)

func randomDenseSet(t *testing.T, n, m int, seed uint64) *DenseSet {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
	as, _ := identicalInstance(n, m, rng)
	// Re-randomize each constraint so the instance is not degenerate.
	for i := range as {
		g := randPSDDense(m, max(2, m/3), rng)
		as[i] = g
	}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func sameBitsVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A warm state the guard cannot repair must produce exactly the cold
// run — bitwise, not just in outcome: the fallback installs the
// untouched cold-start point.
func TestWarmStartGuardFallsBackCold(t *testing.T) {
	set := randomDenseSet(t, 6, 8, 101)
	scaled := set.WithScale(0.4)
	opts := Options{Seed: 3}
	cold, err := DecisionPSDP(scaled, 0.25, opts)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		st   *DecisionState
	}{
		{"nil-x", &DecisionState{N: 6, M: 8}},
		{"wrong-n", &DecisionState{N: 5, M: 8, X: make([]float64, 5)}},
		{"wrong-m", &DecisionState{N: 6, M: 9, X: make([]float64, 6)}},
		{"nan", &DecisionState{N: 6, M: 8, X: []float64{1, math.NaN(), 1, 1, 1, 1}}},
		{"negative", &DecisionState{N: 6, M: 8, X: []float64{1, -2, 1, 1, 1, 1}}},
		{"inf", &DecisionState{N: 6, M: 8, X: []float64{1, math.Inf(1), 1, 1, 1, 1}}},
	}
	for _, tc := range bad {
		o := opts
		o.WarmStart = tc.st
		dr, err := DecisionPSDP(scaled, 0.25, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dr.WarmStarted {
			t.Errorf("%s: guard accepted an unusable state", tc.name)
		}
		if dr.Outcome != cold.Outcome || dr.Iterations != cold.Iterations || !sameBitsVec(dr.X, cold.X) {
			t.Errorf("%s: cold fallback is not bitwise the cold run", tc.name)
		}
	}
}

// An accepted warm start must satisfy the guard's invariants at entry:
// ‖x‖₁ under the dual-exit headroom and λ_max(Ψ) within the starting
// envelope, with every coordinate at or above the cold-start floor.
func TestWarmStartGuardInvariants(t *testing.T) {
	set := randomDenseSet(t, 6, 8, 77)
	scaled := set.WithScale(0.4)
	eps := 0.25
	opts := Options{Seed: 5, CaptureState: true}
	base, err := DecisionPSDP(scaled, eps, opts)
	if err != nil {
		t.Fatal(err)
	}

	d, err := newDecisionRun(scaled, eps, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.orc.release()
	floor := append([]float64(nil), d.x...)
	if !d.applyWarmStart(base.Final) {
		t.Fatal("guard rejected the state of an identical instance")
	}
	sum := 0.0
	for i, v := range d.x {
		if v < floor[i] {
			t.Fatalf("x[%d] = %v below cold-start floor %v", i, v, floor[i])
		}
		sum += v
	}
	if sum >= d.prm.K {
		t.Fatalf("warm ‖x‖₁ = %v not under K = %v", sum, d.prm.K)
	}
	lam, err := LambdaMaxPsi(scaled, d.x)
	if err != nil {
		t.Fatal(err)
	}
	if lam > 1+eps+1e-9 {
		t.Fatalf("warm λ_max(Ψ) = %v exceeds the starting envelope %v", lam, 1+eps)
	}
}

// Resume continues the same run: an iteration-capped inconclusive run,
// resumed with the cap lifted, must reach the same decision as an
// uninterrupted run, with the step index carried across the boundary.
func TestResumeContinuesInconclusiveRun(t *testing.T) {
	set := randomDenseSet(t, 6, 8, 55)
	scaled := set.WithScale(0.4)
	eps := 0.25
	full, err := DecisionPSDP(scaled, eps, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 10 {
		t.Skipf("instance solved in %d iterations; too short to interrupt", full.Iterations)
	}

	capped, err := DecisionPSDP(scaled, eps, Options{Seed: 3, MaxIter: 5, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Outcome != OutcomeInconclusive {
		t.Fatalf("capped run decided %v in 5 iterations", capped.Outcome)
	}
	if capped.Final == nil || capped.Final.T != 5 {
		t.Fatalf("capped state T = %v, want 5", capped.Final)
	}

	resumed, err := ResumeDecisionPSDP(scaled, eps, capped.Final, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Outcome != full.Outcome {
		t.Fatalf("resumed run decided %v, uninterrupted %v", resumed.Outcome, full.Outcome)
	}
	if resumed.Iterations <= 5 {
		t.Fatalf("resumed run reports %d iterations, want the continued total", resumed.Iterations)
	}
	if !(resumed.Lower <= resumed.Upper) {
		t.Fatalf("resumed bracket inverted: [%v, %v]", resumed.Lower, resumed.Upper)
	}
}

// A resume whose state does not match the instance must error loudly:
// the carried bookkeeping certifies only the generating instance, so a
// silent cold start here would be a correctness bug factory.
func TestResumeValidation(t *testing.T) {
	set := randomDenseSet(t, 6, 8, 42)
	scaled := set.WithScale(0.4)
	base, err := DecisionPSDP(scaled, 0.25, Options{Seed: 3, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeDecisionPSDP(scaled, 0.25, nil, Options{}); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := ResumeDecisionPSDP(scaled, 0.3, base.Final, Options{}); err == nil ||
		!strings.Contains(err.Error(), "eps") {
		t.Errorf("eps mismatch accepted: %v", err)
	}
	other := randomDenseSet(t, 7, 8, 43).WithScale(0.4)
	if _, err := ResumeDecisionPSDP(other, 0.25, base.Final, Options{}); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad := base.Final.Clone()
	bad.X[0] = math.NaN()
	if _, err := ResumeDecisionPSDP(scaled, 0.25, bad, Options{}); err == nil {
		t.Error("NaN state accepted")
	}
	trunc := base.Final.Clone()
	trunc.AvgSum = trunc.AvgSum[:len(trunc.AvgSum)-1]
	if _, err := ResumeDecisionPSDP(scaled, 0.25, trunc, Options{}); err == nil ||
		!strings.Contains(err.Error(), "avgSum") {
		t.Errorf("truncated AvgSum accepted: %v", err)
	}
	o := Options{WarmStart: base.Final}
	if _, err := ResumeDecisionPSDP(scaled, 0.25, base.Final, o); err == nil {
		t.Error("combined WarmStart+resume accepted")
	}
}

// CaptureState snapshots must be deep copies that round out the run:
// the final iterate bit-for-bit, the step index, and the instance
// shape, detached from the run's workspace buffers.
func TestCaptureStateContents(t *testing.T) {
	set := randomDenseSet(t, 6, 8, 33)
	scaled := set.WithScale(0.4)
	dr, err := DecisionPSDP(scaled, 0.25, Options{Seed: 3, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	st := dr.Final
	if st == nil {
		t.Fatal("CaptureState left Final nil")
	}
	if st.N != 6 || st.M != 8 || st.Eps != 0.25 || st.T != dr.Iterations {
		t.Fatalf("state header wrong: %+v", st)
	}
	if !sameBitsVec(st.X, dr.X) {
		t.Fatal("state X differs from result X")
	}
	if len(st.AvgSum) != 6 {
		t.Fatalf("AvgSum length %d", len(st.AvgSum))
	}
	cl := st.Clone()
	cl.X[0] = -1
	if st.X[0] == -1 {
		t.Fatal("Clone aliases X")
	}
	// Without CaptureState the snapshot must not be taken.
	plain, err := DecisionPSDP(scaled, 0.25, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Final != nil {
		t.Fatal("Final set without CaptureState")
	}
}

// randPSDDense is a local PSD generator (G·Gᵀ) for warm-start tests.
func randPSDDense(m, rank int, rng *rand.Rand) *matrix.Dense {
	g := matrix.New(m, rank)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return matrix.MulABT(g, g, nil)
}
