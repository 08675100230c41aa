package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/work"
)

func TestMaximizeIdenticalKnownOPT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	as, opt := identicalInstance(5, 4, rng)
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := MaximizePacking(set, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, set, sol, opt, 0.1)
}

func TestMaximizeOrthogonalKnownOPT(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	as, opt := orthogonalRankOne(6, 9, rng)
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := MaximizePacking(set, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, set, sol, opt, 0.1)
}

func TestMaximizeFactoredJL(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	as, opt := orthogonalRankOne(5, 8, rng)
	fact := toFactored(t, as)
	sol, err := MaximizePacking(fact, 0.15, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, fact, sol, opt, 0.3)
}

func TestMaximizeSingleConstraint(t *testing.T) {
	// One constraint A = diag(2, 1): OPT = 1/2.
	set, err := NewDenseSet([]*matrix.Dense{matrix.Diag([]float64{2, 1})})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := MaximizePacking(set, 0.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, set, sol, 0.5, 0.05)
}

func TestMaximizeRejectsZeroConstraintOnly(t *testing.T) {
	set, err := NewDenseSet([]*matrix.Dense{matrix.New(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaximizePacking(set, 0.1, Options{}); err == nil {
		t.Fatal("unbounded instance accepted")
	}
}

func TestMaximizeDecisionCallBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	as, _ := orthogonalRankOne(8, 12, rng)
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := MaximizePacking(set, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 2.2: O(log n) decision calls. Generous constant check.
	if sol.DecisionCalls > 40 {
		t.Fatalf("decision calls = %d, want O(log n)", sol.DecisionCalls)
	}
}

// Property: on random orthogonal instances the certified bracket always
// contains the known OPT and the witness is always verifiably feasible.
func TestQuickMaximizeCertified(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 101))
		n := 2 + int(seed%4)
		m := n + 2 + int(seed%3)
		as, opt := orthogonalRankOne(n, m, rng)
		set, err := NewDenseSet(as)
		if err != nil {
			return false
		}
		sol, err := MaximizePacking(set, 0.15, Options{})
		if err != nil {
			return false
		}
		if sol.Lower > opt*(1+1e-6) || sol.Upper < opt*(1-1e-6) {
			return false
		}
		cert, err := VerifyDual(set, sol.X, 1e-7)
		return err == nil && cert.Feasible && math.Abs(cert.Value-sol.Value) < 1e-9*(1+sol.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func checkSolution(t *testing.T, set ConstraintSet, sol *Solution, opt, wantGap float64) {
	t.Helper()
	if sol.Lower > opt*(1+1e-6) {
		t.Fatalf("lower %v exceeds OPT %v", sol.Lower, opt)
	}
	if sol.Upper < opt*(1-1e-6) {
		t.Fatalf("upper %v below OPT %v", sol.Upper, opt)
	}
	if g := sol.Gap(); g > 3*wantGap {
		t.Fatalf("certified gap %v too large (target %v): [%v, %v], OPT %v", g, wantGap, sol.Lower, sol.Upper, opt)
	}
	cert, err := VerifyDual(set, sol.X, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible {
		t.Fatalf("witness infeasible: λmax = %v", cert.LambdaMax)
	}
	if math.Abs(cert.Value-sol.Value) > 1e-6*(1+sol.Value) {
		t.Fatalf("witness value %v != reported %v", cert.Value, sol.Value)
	}
}

func TestGapInfiniteOnZeroLower(t *testing.T) {
	s := &Solution{Lower: 0, Upper: 1}
	if !math.IsInf(s.Gap(), 1) {
		t.Fatal("Gap should be +Inf for zero lower bound")
	}
}

// EngineAuto is resolved once per Maximize, at eps/4, and every
// decision call then runs the resolved engine at that engine's own
// accuracy: the result must equal, bit for bit, a Maximize that names
// the engine explicitly. Both branches of the dense rule are covered.
func TestMaximizeAutoMatchesResolvedEngine(t *testing.T) {
	for _, c := range []struct {
		n    int
		eps  float64
		want EngineKind
	}{
		{n: 8, eps: 0.3, want: EngineALO}, // eps/4 ≤ 0.1 and n ≥ 8
		{n: 6, eps: 0.3, want: EngineMMW}, // dense n < 8 stays on MMW
	} {
		set := randomDenseSet(t, c.n, 8, uint64(c.n))
		if got := ResolveEngine(EngineAuto, set, c.eps/4); got != c.want {
			t.Fatalf("n=%d: auto resolves to %v, want %v", c.n, got, c.want)
		}
		auto, err := MaximizePacking(set, c.eps, Options{Seed: 9, Engine: EngineAuto})
		if err != nil {
			t.Fatal(err)
		}
		named, err := MaximizePacking(set, c.eps, Options{Seed: 9, Engine: c.want})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(auto.Lower) != math.Float64bits(named.Lower) ||
			math.Float64bits(auto.Upper) != math.Float64bits(named.Upper) ||
			!sameBitsVec(auto.X, named.X) ||
			auto.TotalIterations != named.TotalIterations || auto.DecisionCalls != named.DecisionCalls {
			t.Errorf("n=%d: auto [%v, %v] %d it %d calls, %v [%v, %v] %d it %d calls",
				c.n, auto.Lower, auto.Upper, auto.TotalIterations, auto.DecisionCalls,
				c.want, named.Lower, named.Upper, named.TotalIterations, named.DecisionCalls)
		}
	}
}

// MMW's ε/2 calls can stall on a bracket still wider than 1+ε; the
// ε/4 closing calls must bring it within ε. Without them these two
// dense instances (found among 1152 RandomDense sets, n 3–10, m 4–10,
// ε 0.15–0.5) stopped on two stalls at gaps 0.1524 and 0.1535.
func TestMaximizeClosesStalledBracket(t *testing.T) {
	const eps = 0.15
	for _, c := range []struct {
		n, m int
		seed uint64
	}{{7, 4, 5}, {10, 10, 5}} {
		a := gen.RandomDense(c.n, c.m, 0, rand.New(rand.NewPCG(c.seed, uint64(c.n*100+c.m)))).A
		set, err := NewDenseSet(a)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := MaximizePacking(set, eps, Options{Seed: c.seed, Engine: EngineMMW, Oracle: OracleDenseExact})
		if err != nil {
			t.Fatal(err)
		}
		if g := sol.Gap(); g > eps {
			t.Errorf("n=%d m=%d seed=%d: gap %.4f > ε = %g after %d calls", c.n, c.m, c.seed, g, eps, sol.DecisionCalls)
		}
	}
}

// BenchmarkMaximizeDense runs MaximizePacking at the shapes, engines and
// accuracies of e2ebench dense-solve's four Maximize classes
// (RandomDense sets, dense exact oracle, a warm workspace) and reports
// the decision calls and total iterations per Maximize next to the time.
func BenchmarkMaximizeDense(b *testing.B) {
	for _, c := range []struct {
		name string
		n, m int
		eng  EngineKind
		eps  float64
	}{
		{"mmw-8x8", 8, 8, EngineMMW, 0.25},
		{"alo-8x8", 8, 8, EngineALO, 0.2},
		{"mmw-6x10", 6, 10, EngineMMW, 0.2},
		{"alo-6x10", 6, 10, EngineALO, 0.25},
	} {
		b.Run(c.name, func(b *testing.B) {
			set, err := NewDenseSet(gen.RandomDense(c.n, c.m, 0, rand.New(rand.NewPCG(7, uint64(c.n)))).A)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Seed: 7, Engine: c.eng, Oracle: OracleDenseExact, Workspace: work.New()}
			var iters, calls int
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				sol, err := MaximizePacking(set, c.eps, opts)
				if err != nil {
					b.Fatal(err)
				}
				iters += sol.TotalIterations
				calls += sol.DecisionCalls
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
			b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
		})
	}
}
