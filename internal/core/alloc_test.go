package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sparse"
	"repro/internal/work"
)

// The workspace contract of this package: after the pools warm up in
// iteration 1, a steady-state dense Decision iteration performs ZERO
// heap allocations, and a factored-JL iteration performs at most a
// small constant number (the occasional Lanczos basis growth). These tests pin that down with
// testing.AllocsPerRun, which runs at GOMAXPROCS=1 — exactly the
// regime where every kernel takes its closure-free sequential path.

func denseAllocRun(t *testing.T) *decisionRun {
	t.Helper()
	rng := rand.New(rand.NewPCG(101, 102))
	inst := gen.RandomDense(24, 16, 6, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	// TheoryExact disables the early certificate exits, so the run lasts
	// the full R = O(ε⁻³log²n) budget and the measured steps are honest
	// mid-run iterations. At the critical scale some coordinates move and
	// others do not, so Ψ's eigenbasis turns and the warm route sweeps.
	d, err := newDecisionRun(set.WithScale(criticalScale(t, set)), 0.25, Options{Seed: 1, TheoryExact: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDenseDecisionStepZeroAlloc(t *testing.T) {
	d := denseAllocRun(t)
	// Warm-up: iteration 1 populates every pool (and the first dual
	// snapshot and bucket slices take their capacity).
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
		t.Fatalf("run terminated during measurement after %d iterations; measured steps are not steady-state", d.t)
	}
	if allocs != 0 {
		t.Errorf("steady-state dense Decision iteration allocates %.2f per run, want 0", allocs)
	}
}

// Dense steady state must stay allocation-free through the periodic Ψ
// rebuild (every denseRebuildPeriod updates), which reuses the oracle's
// Ψ matrix and coefficient scratch, with the warm eigenbasis route
// running Jacobi sweeps on either side of it and the full eigensolver
// after it, and without a pool miss.
func TestDenseDecisionRebuildZeroAlloc(t *testing.T) {
	d := denseAllocRun(t)
	o := d.orc.(*denseOracle)
	// Every coordinate moves alike until the first ratio passes 1+ε, and
	// Ψ's eigenbasis turns only after that.
	for i := 0; i < 4 || (o.sweeps == 0 && !d.done); i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	sweeps, misses := o.sweeps, d.ws.Misses()
	allocs := testing.AllocsPerRun(2*denseRebuildPeriod, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.done {
		t.Fatalf("run terminated during measurement after %d iterations", d.t)
	}
	if allocs != 0 {
		t.Errorf("dense Decision iterations across a Ψ rebuild allocate %.2f per run, want 0", allocs)
	}
	if o.sweeps == sweeps || !o.warm {
		t.Errorf("the warm route ran %d sweeps over the measured steps (warm basis kept: %v); the test needs it active", o.sweeps-sweeps, o.warm)
	}
	if got := d.ws.Misses(); got != misses {
		t.Errorf("the measured steps missed the workspace's pools %d times, want 0", got-misses)
	}
}

// factoredJLAllocBudget bounds the steady-state allocations of one
// factored-JL iteration. At GOMAXPROCS=1 (the AllocsPerRun regime) the
// serial guards skip every fork closure and the oracle scratch bundle
// is fully warm, so the measured value is zero; the budget leaves slack
// only for occasional Lanczos basis growth when a refresh converges
// slower than any before it.
const factoredJLAllocBudget = 2

func TestFactoredJLDecisionStepConstAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 202))
	inst, err := gen.RandomFactored(16, 32, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDecisionRun(set.WithScale(0.05), 0.25, Options{Seed: 2, SketchEps: 0.4, TheoryExact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.done {
		t.Fatalf("run terminated during measurement after %d iterations", d.t)
	}
	if allocs > factoredJLAllocBudget {
		t.Errorf("steady-state factored-JL Decision iteration allocates %.2f per run, want <= %d", allocs, factoredJLAllocBudget)
	}
}

// factoredJLCallPerIterBudget bounds the amortized per-iteration
// allocations of a FULL factored-JL Decision call on a warm workspace —
// per-call setup included. The oracle scratch bundle (Ψ-apply
// closures, their scratch, the lockstep ExpMV block, RNG) round-trips
// through the workspace stash, so a warm call pays only a handful of
// fixed allocations (the oracle structs, the stash key boxing, the
// sketch wrapper, the result), and those amortize far below one per
// iteration. Before the stash each call rebuilt the whole bundle —
// around 20 allocations per iteration at this size.
const factoredJLCallPerIterBudget = 4.0

// A full Decision call on the factored-JL path — the JL run plus the
// exact final-bound sweep, which holds BOTH oracle bundles live at once
// before releasing them — must stay under the per-iteration budget on a
// warm workspace.
func TestFactoredJLDecisionCallAllocsPerIter(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 202))
	inst, err := gen.RandomFactored(48, 96, 2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	ws := work.New()
	opts := Options{Seed: 2, SketchEps: 0.4, MaxIter: 40, Workspace: ws, TheoryExact: true}
	var iters int
	call := func() {
		res, err := DecisionPSDP(set.WithScale(0.05), 0.25, opts)
		if err != nil {
			t.Fatal(err)
		}
		iters = res.Iterations
	}
	call() // warm the workspace (pools and the oracle scratch stash)
	allocs := testing.AllocsPerRun(5, call)
	if iters == 0 {
		t.Fatal("decision call ran zero iterations; measurement is vacuous")
	}
	perIter := allocs / float64(iters)
	if perIter > factoredJLCallPerIterBudget {
		t.Errorf("warm factored-JL Decision call allocates %.1f over %d iterations = %.2f per iteration, want <= %.1f",
			allocs, iters, perIter, factoredJLCallPerIterBudget)
	}
}

// The sparse exact-oracle path matches the dense budget: after warm-up,
// a steady-state Decision iteration on a SparseSet through the
// deterministic operator oracle performs ZERO heap allocations — the
// serial guards skip every fork closure at GOMAXPROCS=1, the stacked
// Ψ·v and batched quadratic forms run in caller scratch, and the
// Lanczos basis is prewarmed to its full refresh depth.
func TestSparseExactDecisionStepZeroAlloc(t *testing.T) {
	// Two sizes on purpose: m=24 keeps every reduction in one block,
	// m=48 (m² = 2304 > the 1024 block grain) forces the multi-block
	// trees — the regime where an unguarded SumBlocks closure would
	// allocate every iteration even at GOMAXPROCS=1.
	for _, m := range []int{24, 48} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(501, 502))
			n := 16
			cs := make([]*sparse.CSC, n)
			for i := range cs {
				cs[i] = randSparseSymPSD(m, 2, rng)
			}
			set, err := NewSparseSet(cs)
			if err != nil {
				t.Fatal(err)
			}
			d, err := newDecisionRun(set.WithScale(0.02), 0.25, Options{Seed: 6, Oracle: OracleFactoredExact, TheoryExact: true})
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
				t.Fatalf("run terminated during measurement after %d iterations; measured steps are not steady-state", d.t)
			}
			if allocs != 0 {
				t.Errorf("steady-state sparse exact-oracle Decision iteration allocates %.2f per run, want 0", allocs)
			}
		})
	}
}

// The ALO engine holds the same discipline as MMW: after warm-up, a
// steady-state dense iteration — which moves EVERY unfrozen coordinate,
// not just the below-threshold set — performs ZERO heap allocations.
func TestALODenseStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	inst := gen.RandomDense(24, 16, 6, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newDecisionRun(set.WithScale(0.5), 0.25, Options{Engine: EngineALO, Seed: 1, TheoryExact: true})
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
		t.Fatalf("run terminated during measurement after %d iterations; measured steps are not steady-state", a.t)
	}
	if allocs != 0 {
		t.Errorf("steady-state dense ALO iteration allocates %.2f per run, want 0", allocs)
	}
}

// The sparse exact-oracle ALO path is likewise allocation-free in
// steady state, including across the multi-block reduction regime
// (m² above the kernel block grain).
func TestALOSparseExactStepZeroAlloc(t *testing.T) {
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
	a, err := newDecisionRun(set.WithScale(0.02), 0.25, Options{Engine: EngineALO, Seed: 6, Oracle: OracleFactoredExact, TheoryExact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
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
		t.Errorf("steady-state sparse exact-oracle ALO iteration allocates %.2f per run, want 0", allocs)
	}
}

// A workspace shared across sequential Decision calls must serve every
// call after the first without a single pool miss: the oracles release
// their buffers at finish, and the next call draws the same shapes.
func TestWorkspaceReuseAcrossDecisionCalls(t *testing.T) {
	rng := rand.New(rand.NewPCG(301, 302))
	inst := gen.RandomDense(12, 10, 4, rng)
	set, err := NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	ws := work.New()
	opts := Options{Seed: 3, MaxIter: 30, Workspace: ws}
	if _, err := DecisionPSDP(set.WithScale(0.5), 0.25, opts); err != nil {
		t.Fatal(err)
	}
	warm := ws.Misses()
	if warm == 0 {
		t.Fatal("first call should populate the workspace")
	}
	for call := 0; call < 3; call++ {
		if _, err := DecisionPSDP(set.WithScale(0.5), 0.25, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := ws.Misses(); got != warm {
		t.Errorf("workspace missed %d more times across repeat calls, want 0 (all buffers released and reused)", got-warm)
	}
}

// The sparse path shares the same workspace discipline: repeat
// Decision calls on a shared workspace (JL oracle plus the exact
// final-bound sweep) must never miss the pools after warm-up.
func TestWorkspaceReuseAcrossSparseCalls(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 602))
	m, n := 18, 10
	cs := make([]*sparse.CSC, n)
	for i := range cs {
		cs[i] = randSparseSymPSD(m, 2, rng)
	}
	set, err := NewSparseSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	ws := work.New()
	opts := Options{Seed: 8, MaxIter: 10, SketchEps: 0.4, Workspace: ws}
	if _, err := DecisionPSDP(set.WithScale(0.05), 0.3, opts); err != nil {
		t.Fatal(err)
	}
	warm := ws.Misses()
	for call := 0; call < 3; call++ {
		if _, err := DecisionPSDP(set.WithScale(0.05), 0.3, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := ws.Misses(); got != warm {
		t.Errorf("sparse workspace missed %d more times across repeat calls, want 0", got-warm)
	}
}

// The factored path shares one workspace across the JL run and the
// exact final-bound sweep; repeat calls must also be miss-free.
func TestWorkspaceReuseAcrossFactoredCalls(t *testing.T) {
	rng := rand.New(rand.NewPCG(401, 402))
	inst, err := gen.RandomFactored(10, 16, 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	ws := work.New()
	opts := Options{Seed: 4, MaxIter: 10, SketchEps: 0.4, Workspace: ws}
	if _, err := DecisionPSDP(set.WithScale(0.1), 0.3, opts); err != nil {
		t.Fatal(err)
	}
	warm := ws.Misses()
	for call := 0; call < 3; call++ {
		if _, err := DecisionPSDP(set.WithScale(0.1), 0.3, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := ws.Misses(); got != warm {
		t.Errorf("factored workspace missed %d more times across repeat calls, want 0", got-warm)
	}
}

// The mixed packing/covering rule runs on the same loop and holds the
// same discipline: on a workspace shared with an earlier mixed solve, a
// steady-state iteration — soft-min covering weights, the rule's pick,
// the oracle update — performs ZERO heap allocations, dense and
// factored-JL, under both engines. (A coordinate's cap λ_max is
// computed once, the first time it crosses its guard; these instances
// cross no guard while being measured. TestWideFactorStepZeroAlloc
// covers factors wider than one SketchDot reduction block.)
func TestMixedStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 602))
	lp, err := gen.MixedCoveringLP(12, 10, 4, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDenseSet(lp.A)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := gen.RandomFactored(12, 24, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	// Shrinking the covering rows twentyfold raises the demands well
	// above the cold start's coverage, which keeps the run going.
	cover := matrix.New(lp.C.R, lp.C.C)
	matrix.VecScale(cover.Data, 0.05, lp.C.Data)
	for _, set := range []ConstraintSet{dense, fact.WithScale(0.05)} {
		for _, eng := range []EngineKind{EngineMMW, EngineALO} {
			t.Run(fmt.Sprintf("%T/%v", set, eng), func(t *testing.T) {
				checkMixedStepZeroAlloc(t, set, cover, eng)
			})
		}
	}
}

// checkMixedStepZeroAlloc runs one mixed solve on a fresh workspace,
// then measures steady-state steps of a second run on it: zero
// allocations per step and no pool miss.
func checkMixedStepZeroAlloc(t *testing.T, set ConstraintSet, cover *matrix.Dense, eng EngineKind) {
	t.Helper()
	ws := work.New()
	opts := Options{Engine: eng, Seed: 3, SketchEps: 0.4, MaxIter: 20, Workspace: ws}
	if _, err := RunMixed(set, cover, 0.2, opts, nil); err != nil {
		t.Fatal(err)
	}
	warm := ws.Misses()
	opts.MaxIter = 0
	d, err := newMixedRun(set, cover, 0.2, opts, nil)
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
		t.Errorf("steady-state mixed iteration allocates %.2f per run, want 0", allocs)
	}
	if got := ws.Misses(); got != warm {
		t.Errorf("the second mixed run missed the shared workspace's pools %d times, want 0", got-warm)
	}
}

// Factors of six columns span two SketchDot reduction blocks, whose
// sums CSC.SketchDot replays in place below its fork grain: a
// steady-state factored-JL step, mixed under both engines and Decision,
// performs ZERO heap allocations.
func TestWideFactorStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(603, 604))
	lp, err := gen.MixedCoveringLP(12, 10, 4, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := gen.RandomFactored(12, 24, 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	cover := matrix.New(lp.C.R, lp.C.C)
	matrix.VecScale(cover.Data, 0.05, lp.C.Data)
	for _, eng := range []EngineKind{EngineMMW, EngineALO} {
		t.Run(fmt.Sprintf("mixed/%v", eng), func(t *testing.T) {
			checkMixedStepZeroAlloc(t, wide.WithScale(0.02), cover, eng)
		})
	}
	t.Run("decision", func(t *testing.T) {
		d, err := newDecisionRun(wide.WithScale(0.02), 0.25, Options{Seed: 2, SketchEps: 0.4, TheoryExact: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		})
		if d.done {
			t.Fatalf("run terminated during measurement after %d iterations", d.t)
		}
		if allocs != 0 {
			t.Errorf("steady-state wide-factor Decision iteration allocates %.2f per run, want 0", allocs)
		}
	})
}
