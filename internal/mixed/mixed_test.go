package mixed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// feasibleInstance builds a mixed instance with a known interior point:
// orthogonal rank-1 packing constraints (OPT = Σ 1/‖vᵢ‖²) and a
// covering matrix scaled so that x = 0.5·x*_pack covers everything with
// margin. Then a bicriteria point certainly exists.
func feasibleInstance(t *testing.T, n, m, d int, rng *rand.Rand) (*Problem, []float64) {
	t.Helper()
	inst, err := gen.OrthogonalRankOne(n, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	// Reference point: xᵢ = 0.5/Tr[Aᵢ] (packing-feasible with λmax 0.5).
	xref := make([]float64, n)
	for i := 0; i < n; i++ {
		xref[i] = 0.5 / set.Trace(i)
	}
	// Random nonneg covering rows, then scale each row j so that
	// (C·xref)_j = 1.5 (margin).
	c := matrix.New(d, n)
	for j := 0; j < d; j++ {
		row := c.Row(j)
		for i := range row {
			if rng.Float64() < 0.7 {
				row[i] = rng.Float64()
			}
		}
		row[rng.IntN(n)] += 0.5
		dot := matrix.VecDot(row, xref)
		matrix.VecScale(row, 1.5/dot, row)
	}
	p, err := NewProblem(set, c)
	if err != nil {
		t.Fatal(err)
	}
	return p, xref
}

func TestNewProblemValidation(t *testing.T) {
	set, err := core.NewDenseSet([]*matrix.Dense{matrix.Identity(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(nil, matrix.New(1, 1)); err == nil {
		t.Fatal("nil pack accepted")
	}
	if _, err := NewProblem(set, matrix.New(2, 3)); err == nil {
		t.Fatal("column mismatch accepted")
	}
	neg := matrix.New(1, 1)
	neg.Set(0, 0, -1)
	if _, err := NewProblem(set, neg); err == nil {
		t.Fatal("negative covering accepted")
	}
	if _, err := NewProblem(set, matrix.New(1, 1)); err == nil {
		t.Fatal("all-zero covering row accepted")
	}
}

func TestSolveFeasibleInstance(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	p, _ := feasibleInstance(t, 5, 8, 4, rng)
	res, err := Solve(p, 0.15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible {
		t.Fatalf("status = %v (coverage %v, λmax %v) want feasible", res.Status, res.MinCoverage, res.LambdaMax)
	}
	// Verified bicriteria guarantees.
	if res.MinCoverage < 1-0.15 {
		t.Fatalf("coverage %v below 1−ε", res.MinCoverage)
	}
	if res.LambdaMax > 1+10*0.15 {
		t.Fatalf("λmax %v above 1+10ε", res.LambdaMax)
	}
	// Re-verify both sides independently of the solver's own report.
	cx := p.Cover.MulVec(res.X)
	if matrix.VecMin(cx) < 1-0.15-1e-9 {
		t.Fatal("independent coverage check failed")
	}
	lam, err := core.LambdaMaxPsi(p.Pack, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-res.LambdaMax) > 1e-6*(1+lam) {
		t.Fatal("reported λmax disagrees with independent check")
	}
}

func TestSolveInfeasibleStaysHonest(t *testing.T) {
	// Packing OPT for A = I is 1 (single constraint); demanding
	// coverage 10·x ≥ 1 with C = 0.01 (so x ≥ 100) is wildly
	// infeasible. The solver must NOT report feasible.
	set, err := core.NewDenseSet([]*matrix.Dense{matrix.Identity(3)})
	if err != nil {
		t.Fatal(err)
	}
	c := matrix.New(1, 1)
	c.Set(0, 0, 0.01)
	p, err := NewProblem(set, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, 0.2, Options{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusFeasible {
		t.Fatalf("infeasible instance reported feasible: coverage %v λmax %v", res.MinCoverage, res.LambdaMax)
	}
}

func TestSolveDiagonalMixedMatchesLP(t *testing.T) {
	// Diagonal packing + covering — the pure LP case of the class. A
	// point satisfying both exists by construction.
	set, err := core.NewDenseSet([]*matrix.Dense{
		matrix.Diag([]float64{0.5, 0}),
		matrix.Diag([]float64{0, 0.5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Covering: x₁ + x₂ ≥ 1 (satisfied at x=(1,1), which has λmax 0.5).
	c := matrix.FromRows([][]float64{{0.5, 0.5}})
	p, err := NewProblem(set, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible {
		t.Fatalf("status %v (coverage %v λmax %v)", res.Status, res.MinCoverage, res.LambdaMax)
	}
}

// TestSolveValidation holds Solve to the input rules Decision applies:
// every bad input is an error, never a panic or a silent default.
func TestSolveValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	p, _ := feasibleInstance(t, 3, 5, 2, rng)
	for _, tc := range []struct {
		name string
		p    *Problem
		eps  float64
		opts Options
	}{
		{"eps 0", p, 0, Options{}},
		{"eps above 1", p, 1.2, Options{}},
		{"eps NaN", p, math.NaN(), Options{}},
		{"nil problem", nil, 0.2, Options{}},
		{"nil packing set", &Problem{Cover: p.Cover}, 0.2, Options{}},
		{"nil covering matrix", &Problem{Pack: p.Pack}, 0.2, Options{}},
		{"negative MaxIter", p, 0.2, Options{MaxIter: -1}},
		{"unknown engine", p, 0.2, Options{Engine: core.EngineKind(9)}},
		{"unknown oracle", p, 0.2, Options{Oracle: core.OracleKind(9)}},
		{"jl oracle on a dense set", p, 0.2, Options{Oracle: core.OracleFactoredJL}},
	} {
		if res, err := Solve(tc.p, tc.eps, tc.opts); err == nil {
			t.Errorf("%s: accepted (%d iterations)", tc.name, res.Iterations)
		}
	}
}

// flipCtx is a context whose Err turns to context.Canceled after its
// first k calls. Solve checks it once before oracle setup and once per
// iteration, so the check of iteration k is call k+1: a deterministic
// mid-solve cancellation.
type flipCtx struct {
	context.Context
	k, calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestSolveCancelsMidRun: cancellation stops a mixed solve at the
// iteration where the context turns, under both engines, with an error
// that wraps the context error and after exactly k−1 completed
// iterations; the phase sink counts every iteration of a completed
// solve.
func TestSolveCancelsMidRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	p, _ := feasibleInstance(t, 5, 8, 4, rng)
	const k = 6
	for _, eng := range []core.EngineKind{core.EngineMMW, core.EngineALO} {
		// Uncancelled, the run ends at the coverage exit: an iteration
		// that stops before any update still counts in the phases.
		var ph core.SolveStats
		full, err := Solve(p, 0.15, Options{Engine: eng, Phases: &ph})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != StatusFeasible || full.Iterations <= k || ph.Iterations != full.Iterations || ph.OracleNS <= 0 {
			t.Fatalf("%v: uncancelled solve %v after %d iterations, phases %+v; want feasible after more than %d, counted in the phases",
				eng, full.Status, full.Iterations, ph, k)
		}
		ph = core.SolveStats{}
		ctx := &flipCtx{Context: context.Background(), k: k}
		res, err := Solve(p, 0.15, Options{Engine: eng, Ctx: ctx, Phases: &ph})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got result %v, error %v; want an error wrapping context.Canceled", eng, res, err)
		}
		if want := fmt.Sprintf("iteration %d:", k); !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error %q does not name %q", eng, err, want)
		}
		if ph.Iterations != k-1 || ctx.calls != k+1 {
			t.Errorf("%v: %d iterations completed and %d Err calls, want %d and %d", eng, ph.Iterations, ctx.calls, k-1, k+1)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusFeasible.String() != "feasible" || StatusInconclusive.String() != "inconclusive" {
		t.Fatal("Status.String wrong")
	}
}

func TestSolveFactoredPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	inst, err := gen.OrthogonalRankOne(4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	dset, err := core.NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	fset, err := dset.Factorize(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	xref := make([]float64, 4)
	for i := range xref {
		xref[i] = 0.5 / fset.Trace(i)
	}
	c := matrix.New(2, 4)
	for j := 0; j < 2; j++ {
		row := c.Row(j)
		for i := range row {
			row[i] = 0.5 + rng.Float64()
		}
		matrix.VecScale(row, 1.5/matrix.VecDot(row, xref), row)
	}
	p, err := NewProblem(fset, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, 0.2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible {
		t.Fatalf("factored mixed solve failed: coverage %v λmax %v after %d iters",
			res.MinCoverage, res.LambdaMax, res.Iterations)
	}
}
