package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Phase capture must be coherent: iteration counts match the result,
// the expm/Lanczos share nests inside the oracle phase, and every
// phase is nonnegative.
func checkPhases(t *testing.T, ph *SolveStats, iters int) {
	t.Helper()
	if ph.Iterations != iters {
		t.Errorf("phases counted %d iterations, result says %d", ph.Iterations, iters)
	}
	if ph.OracleNS <= 0 {
		t.Errorf("OracleNS = %d, want > 0", ph.OracleNS)
	}
	if ph.ExpmNS <= 0 || ph.ExpmNS > ph.OracleNS {
		t.Errorf("ExpmNS = %d out of (0, OracleNS=%d]", ph.ExpmNS, ph.OracleNS)
	}
	if ph.UpdateNS < 0 || ph.BookkeepNS < 0 {
		t.Errorf("negative phase: update=%d bookkeep=%d", ph.UpdateNS, ph.BookkeepNS)
	}
}

func TestPhasesDenseDecision(t *testing.T) {
	rng := rand.New(rand.NewPCG(901, 902))
	inst := gen.RandomDense(16, 12, 4, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	res, err := DecisionPSDP(set.WithScale(0.5), 0.25, Options{Seed: 1, MaxIter: 25, Phases: &ph})
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, &ph, res.Iterations)
}

func TestPhasesSparseALO(t *testing.T) {
	rng := rand.New(rand.NewPCG(903, 904))
	m, n := 20, 10
	cs := make([]*sparse.CSC, n)
	for i := range cs {
		cs[i] = randSparseSymPSD(m, 2, rng)
	}
	set, err := NewSparseSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	res, err := DecisionPSDP(set.WithScale(0.05), 0.3, Options{
		Seed: 2, MaxIter: 25, Engine: EngineALO, Oracle: OracleFactoredExact, Phases: &ph,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, &ph, res.Iterations)
}

// MaximizePacking threads one Options through all of its decision
// calls, so a shared Phases pointer accumulates across the whole
// bisection run.
func TestPhasesAccumulateAcrossMaximize(t *testing.T) {
	rng := rand.New(rand.NewPCG(905, 906))
	inst := gen.RandomDense(10, 8, 4, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	res, err := MaximizePacking(set, 0.3, Options{Seed: 3, Phases: &ph})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIterations <= 0 {
		t.Fatal("maximize reported no iterations")
	}
	if ph.Iterations < res.TotalIterations {
		t.Errorf("phases counted %d iterations across the maximize run, result total is %d", ph.Iterations, res.TotalIterations)
	}
	checkPhases(t, &ph, ph.Iterations)
}

// The ISSUE's headline alloc gate: dense and sparse-exact steady-state
// Decision iterations stay ZERO-alloc with the full telemetry stack
// enabled — phase capture AND an OnIteration observer that feeds obs
// metrics (histogram + counter + gauge), exactly what the daemon wires
// up per solve.
func telemetryObserver(reg *obs.Registry) func(IterationInfo) bool {
	iterations := reg.Counter("core_iterations_total", "Solver iterations.")
	lambda := reg.Gauge("core_lambda_max", "Last lambda_max estimate.")
	updated := reg.Histogram("core_updated", "Coordinates updated per iteration.", obs.ExpBuckets(1, 4, 8))
	return func(info IterationInfo) bool {
		iterations.Inc()
		lambda.Set(info.LambdaMax)
		updated.Observe(float64(info.Updated))
		return true
	}
}

func TestDenseDecisionStepZeroAllocWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	inst := gen.RandomDense(24, 16, 6, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	d, err := newDecisionRun(set.WithScale(0.5), 0.25, Options{
		Seed: 1, TheoryExact: true, Phases: &ph,
		OnIteration: telemetryObserver(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.done {
		t.Fatalf("run terminated during measurement after %d iterations", d.t)
	}
	if allocs != 0 {
		t.Errorf("dense Decision iteration with phases+metrics allocates %.2f per run, want 0", allocs)
	}
	if ph.Iterations == 0 || ph.ExpmNS == 0 {
		t.Errorf("phase capture inactive during measurement: %+v", ph)
	}
}

func TestSparseExactStepZeroAllocWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(501, 502))
	m, n := 48, 16
	cs := make([]*sparse.CSC, n)
	for i := range cs {
		cs[i] = randSparseSymPSD(m, 2, rng)
	}
	set, err := NewSparseSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	d, err := newDecisionRun(set.WithScale(0.02), 0.25, Options{
		Seed: 6, Oracle: OracleFactoredExact, TheoryExact: true, Phases: &ph,
		OnIteration: telemetryObserver(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.done {
		t.Fatalf("run terminated during measurement after %d iterations", d.t)
	}
	if allocs != 0 {
		t.Errorf("sparse exact-oracle iteration with phases+metrics allocates %.2f per run, want 0", allocs)
	}
}

func TestALODenseStepZeroAllocWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	inst := gen.RandomDense(24, 16, 6, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	var ph SolveStats
	a, err := newDecisionRun(set.WithScale(0.5), 0.25, Options{
		Engine: EngineALO, Seed: 1, TheoryExact: true, Phases: &ph,
		OnIteration: telemetryObserver(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.step(); err != nil {
			t.Fatal(err)
		}
	})
	if a.done {
		t.Fatalf("run terminated during measurement after %d iterations", a.t)
	}
	if allocs != 0 {
		t.Errorf("dense ALO iteration with phases+metrics allocates %.2f per run, want 0", allocs)
	}
}
